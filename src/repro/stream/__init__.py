"""Streaming PT-k: sliding windows over uncertain tuple streams.

The paper's motivating applications — sensor surveillance, object
tracking — are *streams*: records arrive continuously and analysts care
about the top-k over a recent window.  This subpackage extends the
static PT-k machinery to that setting (in the spirit of the authors'
follow-up work on continuous probabilistic queries):

* :class:`~repro.stream.window.SlidingWindowPTK` — a count-based
  sliding window of uncertain tuples with rule support, kept as a
  private :class:`~repro.query.engine.UncertainDB` table through its
  incremental writes; the PT-k answer over the current window is a
  columnar read of the warm scans those writes carry, taken on demand
  and cached until the window changes.
* :class:`~repro.stream.monitor.PTKMonitor` — wraps a window and emits
  an :class:`~repro.stream.monitor.AnswerDelta` (entered / left the
  answer set) after every arrival, for alerting-style applications.
"""

from repro.stream.monitor import AnswerDelta, PTKMonitor
from repro.stream.window import SlidingWindowPTK

__all__ = ["AnswerDelta", "PTKMonitor", "SlidingWindowPTK"]
