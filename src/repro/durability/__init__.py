"""Durability: write-ahead log + snapshots + crash recovery (layer 10).

The in-memory :class:`~repro.bdms.bdms.BeliefDBMS` evaporates on process
exit; this package makes it survive. Three pieces:

* :mod:`repro.durability.wal` — length-prefixed, CRC-guarded JSON record
  frames in rotating segment files, with configurable fsync policies;
* :mod:`repro.durability.snapshot` — atomic point-in-time dumps of the user
  registry + explicit belief statements;
* :mod:`repro.durability.manager` / :mod:`repro.durability.recovery` — the
  :class:`DurabilityManager` gluing them together: recovery = newest
  snapshot + WAL-tail replay through the BDMS prepared-statement cache
  (which saves ~3% of replay time: the time goes outside parse/compile),
  logging = fsync'd append before every acknowledgement, checkpoint =
  snapshot + prune.

Typical use::

    from repro.bdms.bdms import BeliefDBMS
    from repro.durability import DurabilityManager

    db = BeliefDBMS(schema, durability=DurabilityManager("./data"))
    ...                    # every accepted write is WAL-logged
    db.checkpoint()        # bound future recovery time
    db.close()

or, one level up, ``repro.api.connect(schema, data_dir="./data")`` and
``python -m repro serve --data-dir ./data``.
"""

from repro.durability.manager import DurabilityManager
from repro.durability.recovery import (
    RecoveryReport,
    ReplayStats,
    replay_records,
)
from repro.durability.snapshot import (
    load_latest_snapshot,
    restore_snapshot,
    write_snapshot,
)
from repro.durability.wal import (
    MAX_RECORD_BYTES,
    SegmentScan,
    WalWriter,
    encode_record,
    list_segments,
    scan_bytes,
    scan_segment,
    segment_name,
)

__all__ = [
    "DurabilityManager",
    "RecoveryReport",
    "ReplayStats",
    "replay_records",
    "load_latest_snapshot",
    "restore_snapshot",
    "write_snapshot",
    "MAX_RECORD_BYTES",
    "SegmentScan",
    "WalWriter",
    "encode_record",
    "list_segments",
    "scan_bytes",
    "scan_segment",
    "segment_name",
]
