"""Unit tests for the simulation-export manifest (paper §VII-A)."""

import pytest

from repro.core.seqpoint import SeqPointSelector
from repro.data.batching import SortedBatching
from repro.data.librispeech import build_librispeech
from repro.errors import TraceError
from repro.hw.config import paper_config
from repro.models.ds2 import build_ds2
from repro.profiling.export import export_selection, load_manifest
from repro.train.runner import TrainingRunSimulator


@pytest.fixture(scope="module")
def ds2_selection(devices):
    model = build_ds2()
    corpus = build_librispeech(utterances=640)
    sim = TrainingRunSimulator(model, corpus, SortedBatching(64), devices[1])
    trace = sim.run_epoch_frame(include_eval=False)
    return model, SeqPointSelector().select(trace).selection


class TestExport:
    def test_round_trip(self, ds2_selection, tmp_path):
        model, selection = ds2_selection
        path = tmp_path / "manifest.json"
        export_selection(selection, model, 64, paper_config(1), path)
        manifest = load_manifest(path)
        assert manifest["model"] == "ds2"
        assert manifest["batch_size"] == 64
        assert len(manifest["iterations"]) == len(selection)

    def test_weights_preserved(self, ds2_selection, tmp_path):
        model, selection = ds2_selection
        path = tmp_path / "manifest.json"
        export_selection(selection, model, 64, paper_config(1), path)
        manifest = load_manifest(path)
        exported = sorted(it["weight"] for it in manifest["iterations"])
        assert exported == sorted(p.weight for p in selection.points)

    def test_schedule_entries_complete(self, ds2_selection, tmp_path):
        model, selection = ds2_selection
        path = tmp_path / "manifest.json"
        export_selection(selection, model, 64, paper_config(1), path)
        manifest = load_manifest(path)
        entry = manifest["iterations"][0]["schedule"][0]
        for field in (
            "kernel", "op", "group", "shape", "launches",
            "flops", "work_items", "read_bytes", "write_bytes",
        ):
            assert field in entry

    def test_schedule_launches_match_model(self, ds2_selection, tmp_path):
        from repro.models.spec import IterationInputs

        model, selection = ds2_selection
        path = tmp_path / "manifest.json"
        export_selection(selection, model, 64, paper_config(1), path)
        manifest = load_manifest(path)
        first = manifest["iterations"][0]
        schedule = model.lower_iteration(
            IterationInputs(64, first["seq_len"], first["tgt_len"]),
            paper_config(1),
        )
        assert sum(e["launches"] for e in first["schedule"]) == schedule.launch_count

    def test_wrong_schema_rejected(self, tmp_path):
        from repro.util.serialize import dump_json

        path = tmp_path / "other.json"
        dump_json({}, path, schema="something.else")
        with pytest.raises(TraceError):
            load_manifest(path)
