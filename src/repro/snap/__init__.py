"""repro.snap — versioned checkpoint/restore of a running ``System``.

Three pieces (DESIGN.md §5.7):

* :mod:`repro.snap.capture` — a read-only canonical capture of the
  full live state (engine heap and timers, clock, RNG stream
  positions, per-core µarch and pollution state, RMM
  granule/RTT/realm tables and core-gap assignments, host
  planner/kvm/virtio queues, fleet SLO accounting), driven by the
  :data:`~repro.snap.fields.SNAP_FIELDS` coverage registry that the
  ``snapcov`` lint pass (SNAP001/SNAP002) keeps honest.
* :mod:`repro.snap.restore` — ``snapshot``/``restore`` built on
  deterministic re-execution, verified field-by-field against the
  stored capture (restores are bit-identical or they raise).
* :mod:`repro.snap.fork` — ``os.fork``-based O(1) forking of one
  booted system into N divergent futures, for sweeps and the
  snapshot-fork benchmark.
"""

from .capture import (
    canon,
    capture_digest,
    capture_object,
    capture_system,
    diff_captures,
)
from .fields import SNAP_FIELDS, CaptureSpec
from .fork import ForkError, can_fork, fork_map
from .format import (
    SNAP_FORMAT_VERSION,
    Recipe,
    Snapshot,
    SnapshotDriftError,
    SnapshotError,
)
from .restore import restore, snapshot

__all__ = [
    "SNAP_FORMAT_VERSION",
    "SNAP_FIELDS",
    "CaptureSpec",
    "Recipe",
    "Snapshot",
    "SnapshotError",
    "SnapshotDriftError",
    "ForkError",
    "canon",
    "capture_object",
    "capture_system",
    "capture_digest",
    "diff_captures",
    "snapshot",
    "restore",
    "can_fork",
    "fork_map",
]
