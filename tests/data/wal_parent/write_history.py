"""Write the journal under ``tests/data/wal_parent/wal``.

The committed segment was written by this script at the commit before
writes became one ``Mutation`` record (git ``f9d0f24``), through the
named ``DurableDB`` writes of that release::

    PYTHONPATH=src python tests/data/wal_parent/write_history.py OUT_DIR

``tests/test_mutation_record.py`` recovers it and journals the same
history through ``DurableDB.apply``.
"""

import sys

from repro.durable import DurableDB
from repro.model.table import UncertainTable


def main(data_dir: str) -> None:
    db = DurableDB(data_dir, fsync="off", warm_start=False)
    table = UncertainTable(name="sightings")
    table.add("a", 10.0, 0.5)
    table.add(("pair", 1), 8.0, 0.3)
    db.register(table)
    db.add("sightings", "b", 9.5, 0.25, tid="b-outer", name="north", colour="red")
    db.add("sightings", "c", 7.0, 0.2)
    db.add_exclusive("sightings", "r1", "b", "c")
    db.add("sightings", "d", 6.0, 0.1)
    db.join_rule("sightings", "r1", "d")
    db.update_probability("sightings", "a", 0.75)
    db.update_score("sightings", ("pair", 1), 11.0)
    db.remove_tuple("sightings", "c")
    db.note_served("sightings", 2)
    dropped = UncertainTable(name="scratch")
    dropped.add("x", 3.0, 0.6)
    db.register(dropped)
    db.add("scratch", "w", 4.0, 0.5)
    db.drop("scratch")
    replacement = UncertainTable(name="scratch")
    replacement.add("z", 1.0, 0.9)
    db.register(replacement)
    db.add("scratch", "y", 2.0, 0.4)
    db.close()


if __name__ == "__main__":
    main(sys.argv[1])
