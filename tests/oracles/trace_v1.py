"""The legacy row-oriented v1 trace writer.

``repro`` only reads v1 artefacts; this writer produces them so the v1
reader keeps a round-trip test beside the golden fixture.
"""

from __future__ import annotations

from pathlib import Path

from repro.train.frame import SCHEMA_V1, TraceFrame
from repro.util.serialize import dump_json


def save_v1(frame: TraceFrame, path: str | Path) -> None:
    """Write ``frame`` in the ``repro.training-trace.v1`` row schema."""
    payload = {
        "model_name": frame.model_name,
        "dataset_name": frame.dataset_name,
        "config_name": frame.config_name,
        "batch_size": frame.batch_size,
        "autotune_s": frame.autotune_s,
        "eval_s": frame.eval_s,
        "records": [
            {
                "index": r.index,
                "epoch": r.epoch,
                "seq_len": r.seq_len,
                "tgt_len": r.tgt_len,
                "time_s": r.time_s,
                "launches": r.launches,
                "counters": r.counters.as_dict(),
                "group_times": r.group_times,
                "kernel_names": sorted(r.kernel_names),
            }
            for r in frame.build_records()
        ],
    }
    dump_json(payload, path, SCHEMA_V1)
