import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import queryemb
from queryemb import cli, theory
from queryemb.cli import (
    EvalParams,
    dataset_digest,
    main,
    read_manifest,
    sha256_file,
    split_query_ids,
    verify_checksums,
)
from queryemb.core import GeneratorConfig, config_from_mapping, config_text, parse_key_values
from queryemb.embedder import TrainConfig, init_model, load_checkpoint, save_checkpoint
from queryemb.genmodel import load_dataset, read_matrix, write_matrix

GEN_CONFIG = """\
# small end-to-end benchmark
dim = 6
vocab_size = 300
max_len = 4
lam = 3.0
alphas = 0.9,0.85,0.8,0.75
betas = 1.5,1.4,1.3,1.2
epsilon_p = 0.5
n_products = 30
n_queries = 400
seed = 7
"""

TRAIN_CONFIG = """\
learning_rate = 0.05
epochs = 3
n_positives = 3
n_negatives = 3
batch_size = 100
seed = 7
"""


# sha256 of the eval outputs of the pipeline fixture
_PINNED_EVAL = {
    ("eval_att", "eval_attention.csv"):
        "18065d1f20ce2af27db796f29ece8aa0dabf06c1cff51a18efa75094228ba250",
    ("eval_att", "summary.txt"):
        "44ea6dfd871d2965ea829b97c4b7d935f922ef4562be522c8e58f736a0878212",
    ("eval_hash", "eval_trigram_hash.csv"):
        "8e12587260758a8a94c49793c9f17d2585c43fe93c9dd782cf83cee8c2441d85",
    ("eval_hash", "summary.txt"):
        "84dd5993fcdbb751d5527125f7394c6257124f0a7ab2016b26e3ec8166ba307f",
}

def _write(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """generate -> train -> eval (checkpoint and baseline), all exit 0."""
    root = tmp_path_factory.mktemp("pipeline")
    gen_cfg = _write(root / "gen.cfg", GEN_CONFIG)
    train_cfg = _write(root / "train.cfg", TRAIN_CONFIG)
    data = str(root / "data")
    run = str(root / "run")
    eval_att = str(root / "eval_att")
    eval_hash = str(root / "eval_hash")
    assert main(["generate", "--config", gen_cfg, "--out", data]) == 0
    assert main(["train", data, "--config", train_cfg, "--out", run]) == 0
    ckpt = os.path.join(run, "checkpoint.bin")
    assert main(["eval", data, "--model", ckpt, "--out", eval_att]) == 0
    assert main(["eval", data, "--model", "baseline", "--out", eval_hash]) == 0
    return {
        "root": root, "gen_cfg": gen_cfg, "train_cfg": train_cfg,
        "data": data, "run": run, "ckpt": ckpt,
        "eval_att": eval_att, "eval_hash": eval_hash,
    }


def _manifest_section(out_dir, prefix):
    """The prefix.* entries of out_dir's manifest, keyed without the prefix."""
    entries = read_manifest(out_dir).items()
    return {key[len(prefix) + 1 :]: value for key, value in entries if key.startswith(prefix + ".")}


def _dir_hashes(path, skip=("manifest.txt",)):
    return {
        name: sha256_file(os.path.join(path, name))
        for name in sorted(os.listdir(path))
        if name not in skip
    }


class TestGenerate:
    def test_artifacts_and_manifest(self, pipeline):
        data = pipeline["data"]
        names = set(os.listdir(data))
        assert "manifest.txt" in names
        manifest = read_manifest(data)
        assert manifest["command"] == "generate"
        assert manifest["seed"] == "7"
        assert manifest["config.n_queries"] == "400"
        assert set(_manifest_section(data, "checksum")) == names - {"manifest.txt"}
        assert verify_checksums(data) == []
        ds = load_dataset(data)
        assert len(ds.queries) == 400

    def test_byte_identical_rerun(self, pipeline, tmp_path):
        out = str(tmp_path / "data2")
        assert main(["generate", "--config", pipeline["gen_cfg"], "--out", out]) == 0
        assert _dir_hashes(out) == _dir_hashes(pipeline["data"])

    def test_seed_override_changes_output(self, pipeline, tmp_path):
        out = str(tmp_path / "data_seed9")
        assert main(["generate", "--config", pipeline["gen_cfg"], "--out", out, "--seed", "9"]) == 0
        assert read_manifest(out)["seed"] == "9"
        assert _dir_hashes(out) != _dir_hashes(pipeline["data"])

    def test_empty_dataset(self, tmp_path):
        cfg = _write(tmp_path / "g.cfg", GEN_CONFIG.replace("n_queries = 400", "n_queries = 0"))
        out = str(tmp_path / "empty")
        assert main(["generate", "--config", cfg, "--out", out]) == 0
        assert len(load_dataset(out).queries) == 0

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path / "g.cfg", GEN_CONFIG + "typo_key = 1\n")
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "typo_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, bad", [("lam = 3.0", "lam = inf"), ("betas = 1.5", "betas = nan")],
        ids=["lam", "betas"],
    )
    def test_non_finite_lam_or_beta_exits_2_without_dataset(self, tmp_path, capsys, line, bad):
        cfg = _write(tmp_path / "g.cfg", GEN_CONFIG.replace(line, bad))
        out = tmp_path / "data"
        rc = main(["generate", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = main(["generate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestTrain:
    def test_artifacts(self, pipeline):
        run = pipeline["run"]
        assert sorted(os.listdir(run)) == ["checkpoint.bin", "loss_trace.csv", "manifest.txt"]
        manifest = read_manifest(run)
        assert manifest["command"] == "train"
        assert manifest["config.epochs"] == "3"
        assert verify_checksums(run) == []

    def test_byte_identical_rerun(self, pipeline, tmp_path):
        out = str(tmp_path / "run2")
        assert main(["train", pipeline["data"], "--config", pipeline["train_cfg"], "--out", out]) == 0
        assert _dir_hashes(out) == _dir_hashes(pipeline["run"])

    def test_zero_epochs_checkpoint_is_initialization(self, pipeline, tmp_path):
        cfg = _write(tmp_path / "t.cfg", TRAIN_CONFIG.replace("epochs = 3", "epochs = 0"))
        out = str(tmp_path / "run0")
        assert main(["train", pipeline["data"], "--config", cfg, "--out", out]) == 0
        got = load_checkpoint(os.path.join(out, "checkpoint.bin"))
        want = init_model(300, 6, 4, 7)
        assert np.array_equal(got.emb, want.emb)
        assert np.array_equal(got.attn, want.attn)
        with open(os.path.join(out, "loss_trace.csv")) as fh:
            assert fh.read() == "epoch,batch,loss\n"

    def test_corrupted_dataset_exits_2(self, pipeline, tmp_path, capsys):
        import shutil

        bad = str(tmp_path / "bad_data")
        shutil.copytree(pipeline["data"], bad)
        with open(os.path.join(bad, "products.bin"), "ab") as fh:
            fh.write(b"\x00")
        rc = main(["train", bad, "--config", pipeline["train_cfg"], "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "checksum mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, replacement, messages",
        [("command = generate\n", "", ("manifest.txt", "is missing 'command'")),
         ("\nseed = 7\n", "\nseed = x\n", ("manifest.txt", "'seed' is not parsable as int: 'x'"))],
        ids=["no-command", "seed-x"],
    )
    def test_malformed_dataset_manifest_exits_2(
        self, pipeline, tmp_path, capsys, line, replacement, messages
    ):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        text = (data / "manifest.txt").read_text()
        assert line in text
        (data / "manifest.txt").write_text(text.replace(line, replacement, 1))
        out = tmp_path / "r"
        rc = main(["train", str(data), "--config", pipeline["train_cfg"], "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert all(message in err for message in messages)
        assert not out.exists()

    def test_oversized_matrix_header_exits_2(self, pipeline, tmp_path, capsys):
        # rows = cols = 0xFFFFFFFF: the payload size is checked before any read
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        os.remove(data / "manifest.txt")  # a hand-built directory: nothing to verify against
        with open(data / "vocab.bin", "r+b") as fh:
            fh.seek(8)
            fh.write(b"\xff" * 8)
        out = tmp_path / "r"
        rc = main(["train", str(data), "--config", pipeline["train_cfg"], "--out", str(out)])
        assert rc == 2
        payload = 300 * 6 * 8  # vocab_size x dim float64s
        assert f"vocab.bin: payload {payload} bytes, expected {0xFFFFFFFF**2 * 8}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_missing_required_key_exits_2(self, pipeline, tmp_path, capsys):
        cfg = _write(tmp_path / "t.cfg", "learning_rate = 0.05\n")
        rc = main(["train", pipeline["data"], "--config", cfg, "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "epochs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        ["positive_mode = walks", "walk_length = 3", "walks_per_node = 10", "optimizer = sgd"],
    )
    def test_removed_recipe_key_exits_2_without_checkpoint(self, pipeline, tmp_path, capsys, line):
        # uniform positives with Adam is the only recipe; the keys of the
        # random-walk positives and of the optimizer choice are unknown
        cfg = _write(tmp_path / "t.cfg", TRAIN_CONFIG + line + "\n")
        out = tmp_path / "r"
        rc = main(["train", pipeline["data"], "--config", cfg, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown TrainConfig keys" in err and line.split(" = ")[0] in err
        assert not out.exists()

    def test_edge_free_dataset_reports_no_updates(self, tmp_path, capsys):
        # two queries on two products farther apart than epsilon_p: no anchor
        # has a positive, so every epoch runs and makes no update
        gen = GEN_CONFIG.replace("n_products = 30", "n_products = 2")
        cfg = _write(tmp_path / "g.cfg", gen.replace("n_queries = 400", "n_queries = 2"))
        data = str(tmp_path / "data")
        assert main(["generate", "--config", cfg, "--out", data]) == 0
        graph = load_dataset(data).graph
        assert graph.degree(0) == graph.degree(1) == 0
        out = str(tmp_path / "run")
        train_cfg = _write(tmp_path / "t.cfg", TRAIN_CONFIG)
        capsys.readouterr()
        assert main(["train", data, "--config", train_cfg, "--out", out]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "trained 3 epochs, 0 updates: no anchor has a neighbour "
            "(checkpoint equals initialization)"
        )
        got = load_checkpoint(os.path.join(out, "checkpoint.bin"))
        assert np.array_equal(got.emb, init_model(300, 6, 4, 7).emb)
        with open(os.path.join(out, "loss_trace.csv")) as fh:
            assert fh.read() == "epoch,batch,loss\n"

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_non_finite_learning_rate_exits_2_without_checkpoint(
        self, pipeline, tmp_path, capsys, rate
    ):
        cfg = _write(tmp_path / "t.cfg", TRAIN_CONFIG.replace("0.05", rate))
        out = tmp_path / "r"
        rc = main(["train", pipeline["data"], "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert "learning_rate must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_train_exits_2_without_checkpoint(self, pipeline, tmp_path, capsys):
        cfg = _write(tmp_path / "t.cfg", TRAIN_CONFIG.replace("0.05", "1e300"))
        out = tmp_path / "r"
        rc = main(["train", pipeline["data"], "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, bad", [("vocab.bin", np.inf), ("products.bin", np.nan)])
    def test_non_finite_dataset_exits_2(self, pipeline, tmp_path, capsys, name, bad):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        os.remove(data / "manifest.txt")  # a hand-built directory: nothing to verify against
        arr = read_matrix(str(data / name))
        arr[0, 0] = bad
        write_matrix(str(data / name), arr)
        for argv in (
            ["train", str(data), "--config", pipeline["train_cfg"], "--out", str(tmp_path / "r")],
            ["eval", str(data), "--model", "baseline", "--out", str(tmp_path / "e")],
        ):
            assert main(argv) == 2
            assert "must be finite" in capsys.readouterr().err


class TestEval:
    def test_summary_blocks_comparable(self, pipeline):
        att = open(os.path.join(pipeline["eval_att"], "summary.txt")).read()
        hsh = open(os.path.join(pipeline["eval_hash"], "summary.txt")).read()
        assert att.splitlines()[0] == hsh.splitlines()[0]  # same header
        assert "attention" in att
        assert "trigram_hash" in hsh
        assert os.path.exists(os.path.join(pipeline["eval_att"], "eval_attention.csv"))
        assert os.path.exists(os.path.join(pipeline["eval_hash"], "eval_trigram_hash.csv"))

    def test_eval_bytes_pinned(self, pipeline):
        # any change to the metrics, the oracle or the CSV's number format moves these
        got = {
            (sub, name): sha256_file(os.path.join(pipeline[sub], name))
            for sub, name in _PINNED_EVAL
        }
        assert got == _PINNED_EVAL
        for sub, name in (("eval_att", "eval_attention.csv"), ("eval_hash", "eval_trigram_hash.csv")):
            with open(os.path.join(pipeline[sub], name)) as fh:
                assert "np." not in fh.read()  # a numpy scalar's repr, not a plain float

    def test_metrics_in_unit_interval(self, pipeline):
        import csv

        with open(os.path.join(pipeline["eval_att"], "eval_attention.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            for col in ("precision", "recall"):
                assert 0.0 <= float(row[col]) <= 1.0

    def test_probe_count_matches_split(self, pipeline):
        import csv

        with open(os.path.join(pipeline["eval_att"], "eval_attention.csv")) as fh:
            rows = list(csv.DictReader(fh))
        _, probe_ids = split_query_ids(400, 0.2, 0)
        assert len(rows) == len(probe_ids) == 80

    def test_self_retrieval_split(self, pipeline, tmp_path):
        import csv

        cfg = _write(tmp_path / "e.cfg", "test_fraction = 0\n")
        out = str(tmp_path / "selfeval")
        rc = main(["eval", pipeline["data"], "--model", "baseline",
                   "--config", cfg, "--out", out])
        assert rc == 0
        with open(os.path.join(out, "eval_trigram_hash.csv")) as fh:
            assert len(list(csv.DictReader(fh))) == 400

    def test_unknown_eval_key_exits_2(self, pipeline, tmp_path, capsys):
        cfg = _write(tmp_path / "e.cfg", "bogus = 3\n")
        rc = main(["eval", pipeline["data"], "--model", "baseline",
                   "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_corrupted_checkpoint_exits_2(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad_run"
        shutil.copytree(pipeline["run"], bad)
        ckpt = bad / "checkpoint.bin"
        data = bytearray(ckpt.read_bytes())
        data[-1] ^= 0xFF
        ckpt.write_bytes(bytes(data))
        rc = main(["eval", pipeline["data"], "--model", str(ckpt), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "checksum mismatch" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x")

    def test_oversized_checkpoint_matrix_header_exits_2(self, pipeline, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()  # no manifest: only load_checkpoint's own checks apply
        ckpt = run / "checkpoint.bin"
        data = bytearray(Path(pipeline["ckpt"]).read_bytes())
        data[24 + 8 : 24 + 16] = b"\xff" * 8  # the emb block's rows and cols
        ckpt.write_bytes(bytes(data))
        out = tmp_path / "x"
        rc = main(["eval", pipeline["data"], "--model", str(ckpt), "--out", str(out)])
        assert rc == 2
        assert "checkpoint.bin:emb: payload" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_dataset_mismatch_exits_2(self, pipeline, tmp_path, capsys):
        cfg = _write(
            tmp_path / "g.cfg", GEN_CONFIG.replace("vocab_size = 300", "vocab_size = 200")
        )
        other = str(tmp_path / "other_data")
        assert main(["generate", "--config", cfg, "--out", other]) == 0
        rc = main(["eval", other, "--model", pipeline["ckpt"], "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "does not fit" in capsys.readouterr().err
        # hand-built checkpoint directories: no manifest, so only the shape check refuses them
        for (vocab, max_len), shape in (
            ((301, 4), "vocab 301 vs 300, max_len 4 vs 4"),
            ((300, 3), "vocab 300 vs 300, max_len 3 vs 4"),
        ):
            ckpt = tmp_path / f"bare_{vocab}_{max_len}" / "checkpoint.bin"
            ckpt.parent.mkdir()
            save_checkpoint(init_model(vocab, 6, max_len, 0), str(ckpt))
            out = tmp_path / f"y_{vocab}_{max_len}"
            rc = main(["eval", pipeline["data"], "--model", str(ckpt), "--out", str(out)])
            assert rc == 2
            assert f"checkpoint shape does not fit the dataset: {shape}" in capsys.readouterr().err
            assert not out.exists()

    def test_checkpoint_trained_on_other_dataset_exits_2(self, pipeline, tmp_path, capsys):
        # same shape, other seed: only the recorded dataset digest tells them apart
        other = str(tmp_path / "other_data")
        assert main(["generate", "--config", pipeline["gen_cfg"], "--seed", "8", "--out", other]) == 0
        rc = main(["eval", other, "--model", pipeline["ckpt"], "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "checkpoint was trained on a different dataset" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x")

    def test_checkpoint_trained_on_this_dataset_evaluates(self, pipeline, tmp_path):
        manifest = read_manifest(pipeline["run"])
        assert manifest["input.dataset_digest"] == dataset_digest(read_manifest(pipeline["data"]))
        # the digest hashes the dataset manifest's checksum lines exactly as written
        lines = Path(pipeline["data"], "manifest.txt").read_text().splitlines(keepends=True)
        literal = "".join(l for l in lines if l.startswith("checksum."))
        assert dataset_digest(read_manifest(pipeline["data"])) == hashlib.sha256(literal.encode()).hexdigest()
        rc = main(["eval", pipeline["data"], "--model", pipeline["ckpt"], "--out", str(tmp_path / "x")])
        assert rc == 0
        # a checkpoint directory whose manifest predates the digest still evaluates
        old = tmp_path / "old_run"
        shutil.copytree(pipeline["run"], old)
        lines = (old / "manifest.txt").read_text().splitlines(keepends=True)
        (old / "manifest.txt").write_text("".join(l for l in lines if "dataset_digest" not in l))
        rc = main(["eval", pipeline["data"], "--model", str(old / "checkpoint.bin"),
                   "--out", str(tmp_path / "y")])
        assert rc == 0

    def test_timing_lines_leave_dataset_digest(self, pipeline, tmp_path):
        # the digest hashes only the checksum.* lines: per-stage timings cannot move it
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        with open(data / "manifest.txt", "a") as fh:
            fh.write("timing.generate_s = 0.1\n")
        assert dataset_digest(read_manifest(str(data))) == dataset_digest(read_manifest(pipeline["data"]))
        assert verify_checksums(str(data)) == []

    def test_each_input_manifest_read_once(self, pipeline, tmp_path, monkeypatch):
        reads = []
        read = cli.read_key_values
        monkeypatch.setattr(cli, "read_key_values", lambda path: reads.append(path) or read(path))
        manifests = [os.path.join(d, "manifest.txt") for d in (pipeline["data"], pipeline["run"])]
        assert main(["eval", pipeline["data"], "--model", pipeline["ckpt"],
                     "--out", str(tmp_path / "x")]) == 0
        assert sorted(reads) == sorted(manifests)
        reads.clear()
        assert main(["train", pipeline["data"], "--config", pipeline["train_cfg"],
                     "--out", str(tmp_path / "y")]) == 0
        assert sorted(reads) == sorted([manifests[0], pipeline["train_cfg"]])


_PANELS = (theory.WEIGHT_PANEL_FILE, theory.VARIANCE_PANEL_FILE, theory.BETA_PANEL_FILE)


def _figure1_stub(seed):
    """Stands in for figure1's 30-epoch train: one passing check per panel."""
    return [
        theory.CheckResult(name=f"stub_{name}", passed=True, details={"seed": seed},
                           panel=(name, f"position,value\n1,{seed}\n"))
        for name in _PANELS
    ]


class TestValidate:
    def test_blue_suite_passes(self, tmp_path, capsys):
        out = str(tmp_path / "val")
        assert main(["validate", "blue", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "checks passed" in stdout
        with open(os.path.join(out, "report.txt")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)
        manifest = read_manifest(out)
        assert manifest["config.suite"] == "blue"
        assert manifest["config.seed_blue"] == str(theory.VALIDATE_SEED)

    def test_failing_suite_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(
            theory.SUITES,
            "blue",
            lambda seed: [theory.CheckResult(name="forced", passed=False, details={})],
        )
        assert main(["validate", "blue", "--out", str(tmp_path / "val")]) == 1
        assert "0/1 checks passed" in capsys.readouterr().out

    def test_seed_override_recorded(self, tmp_path):
        out = str(tmp_path / "val")
        assert main(["validate", "blue", "--out", out, "--seed", "5"]) == 0
        manifest = read_manifest(out)
        assert manifest["seed"] == "5"
        assert manifest["config.seed_blue"] == "5"

    def test_figure1_records_its_own_seed(self, tmp_path, monkeypatch):
        monkeypatch.setitem(theory.SUITES, "figure1", _figure1_stub)
        for extra, seed in (([], theory.DESK_SEED), (["--seed", "7"], 7)):
            out = str(tmp_path / f"val{seed}")
            assert main(["validate", "figure1", "--out", out, *extra]) == 0
            manifest = read_manifest(out)
            assert manifest["seed"] == str(seed)
            assert manifest["config.seed_figure1"] == str(seed)
            for name in _PANELS:
                assert Path(out, name).read_text() == f"position,value\n1,{seed}\n"

    def test_checksums_name_only_this_runs_files(self, tmp_path, monkeypatch):
        monkeypatch.setitem(theory.SUITES, "figure1", _figure1_stub)
        out = str(tmp_path / "val")
        assert main(["validate", "figure1", "--out", out]) == 0
        assert main(["validate", "blue", "--out", out]) == 0
        assert all(Path(out, name).exists() for name in _PANELS)  # stale, left in place
        assert list(_manifest_section(out, "checksum")) == ["report.txt"]

    def test_uncreatable_out_exits_2_before_any_suite_runs(self, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setitem(theory.SUITES, "figure1", lambda seed: ran.append(seed) or [])
        (tmp_path / "file").write_text("")
        assert main(["validate", "figure1", "--out", str(tmp_path / "file")]) == 2
        assert ran == []


@pytest.mark.parametrize(
    "key, value, kind", [("seed", "x", "int"), ("duration_seconds", "1.5s", "float")]
)
def test_unparsable_manifest_value_names_file_and_key(tmp_path, key, value, kind):
    entries = {"command": "generate", "seed": "7", "duration_seconds": "0.25", key: value}
    (tmp_path / "manifest.txt").write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    path = str(tmp_path / "manifest.txt")
    with pytest.raises(ValueError) as info:
        read_manifest(str(tmp_path))
    assert str(info.value) == f"manifest {path!r}: {key!r} is not parsable as {kind}: {value!r}"


class TestChecksumNames:
    """A manifest's checksum.* names are bare names of regular files in its
    directory; anything else is a checksum problem, reported without a read."""

    def test_every_recorded_name_is_a_regular_file_in_its_directory(self, pipeline, tmp_path):
        val = str(tmp_path / "val")
        assert main(["validate", "blue", "--out", val]) == 0
        for out in (pipeline["data"], pipeline["run"], pipeline["eval_att"],
                    pipeline["eval_hash"], val):
            names = list(_manifest_section(out, "checksum"))
            assert names, out
            for name in names:
                assert os.path.basename(name) == name and name not in (".", ".."), name
                path = os.path.join(out, name)
                assert os.path.isfile(path) and not os.path.islink(path), path

    @pytest.mark.parametrize("target", ["dataset", "checkpoint"])
    @pytest.mark.parametrize("kind", ["dev-zero", "parent", "absolute", "fifo"])
    def test_name_outside_the_directory_or_not_a_file_exits_2_unread(
        self, pipeline, tmp_path, monkeypatch, capsys, kind, target
    ):
        data, run = tmp_path / "data", tmp_path / "run"
        shutil.copytree(pipeline["data"], data)
        shutil.copytree(pipeline["run"], run)
        outside = tmp_path / "outside.txt"
        outside.write_text("not an artifact\n")
        bad = data if target == "dataset" else run
        if kind == "fifo":
            os.mkfifo(bad / "pipe")
        name, problem = {
            "dev-zero": ("/dev/zero", "recorded name is not a file name in the directory"),
            "parent": ("../outside.txt", "recorded name is not a file name in the directory"),
            "absolute": (str(outside), "recorded name is not a file name in the directory"),
            "fifo": ("pipe", "recorded in manifest but not a regular file"),
        }[kind]
        with open(bad / "manifest.txt", "a") as fh:
            fh.write(f"checksum.{name} = 00\n")
        # hashing a device, a FIFO or a file outside the two directories fails
        # the test instead of hanging it or reading elsewhere
        allowed = {os.path.realpath(data), os.path.realpath(run)}
        sha256_file = cli.sha256_file

        def guarded(path):
            assert os.path.isfile(path) and os.path.dirname(os.path.realpath(path)) in allowed, path
            return sha256_file(path)

        monkeypatch.setattr(cli, "sha256_file", guarded)
        ckpt = str(run / "checkpoint.bin")
        commands = {
            "dataset": [["train", str(data), "--config", pipeline["train_cfg"]],
                        ["eval", str(data), "--model", "baseline"]],
            "checkpoint": [["eval", str(data), "--model", ckpt]],
        }[target]
        for argv in commands:
            out = tmp_path / "out"
            assert main([*argv, "--out", str(out)]) == 2
            assert f"error: {target} {bad}: {name}: {problem}" in capsys.readouterr().err
            assert not out.exists()


class TestManifestLayout:
    """Every command's manifest: command, seed and duration_seconds, then the
    config.*, input.*, output.* and checksum.* lines, each section sorted by
    key. The checksums name exactly the files the command wrote, and a re-run
    into the same directory changes only the duration_seconds line."""

    SECTIONS = ("config", "input", "output", "checksum")

    def _assert_layout(self, argv, out, written):
        assert main(argv) == 0
        first = Path(out, "manifest.txt").read_text().splitlines()
        assert main(argv) == 0
        second = Path(out, "manifest.txt").read_text().splitlines()

        keys = [line.partition(" = ")[0] for line in first]
        assert keys[:3] == ["command", "seed", "duration_seconds"]
        body = [key.partition(".") for key in keys[3:]]
        prefixes = [prefix for prefix, _, _ in body]
        assert prefixes == sorted(prefixes, key=self.SECTIONS.index)
        for section in self.SECTIONS:
            names = [name for prefix, _, name in body if prefix == section]
            assert names == sorted(names)
        assert [name for prefix, _, name in body if prefix == "checksum"] == sorted(written)

        assert len(second) == len(first)
        assert [i for i, (a, b) in enumerate(zip(first, second)) if a != b] in ([], [2])

    def test_generate(self, pipeline, tmp_path):
        out = str(tmp_path / "data")
        self._assert_layout(["generate", "--config", pipeline["gen_cfg"], "--out", out], out,
                            [name for name in os.listdir(pipeline["data"]) if name != "manifest.txt"])

    def test_train(self, pipeline, tmp_path):
        out = str(tmp_path / "run")
        self._assert_layout(
            ["train", pipeline["data"], "--config", pipeline["train_cfg"], "--out", out],
            out, ["checkpoint.bin", "loss_trace.csv"],
        )

    @pytest.mark.parametrize("model, csv", [("ckpt", "eval_attention.csv"),
                                            ("baseline", "eval_trigram_hash.csv")])
    def test_eval(self, pipeline, tmp_path, model, csv):
        out = str(tmp_path / "x")
        model = pipeline.get(model, model)
        self._assert_layout(["eval", pipeline["data"], "--model", model, "--out", out], out,
                            [csv, "summary.txt"])

    def test_validate(self, tmp_path):
        out = str(tmp_path / "val")
        self._assert_layout(["validate", "blue", "--out", out], out, ["report.txt"])

    def test_validate_figure1(self, tmp_path, monkeypatch):
        monkeypatch.setitem(theory.SUITES, "figure1", _figure1_stub)
        out = str(tmp_path / "val")
        self._assert_layout(["validate", "figure1", "--out", out], out, ["report.txt", *_PANELS])


class TestManifestConfigRoundTrip:
    """A manifest's config.* lines parse back to the config its command ran with."""

    def _manifest_config(self, cls, out_dir):
        return config_from_mapping(cls, _manifest_section(out_dir, "config"))

    def _write_config(self, path, config):
        return _write(path, "".join(f"{k} = {v}\n" for k, v in config_text(config).items()))

    def test_generate(self, pipeline):
        ran_with = config_from_mapping(GeneratorConfig, parse_key_values(GEN_CONFIG))
        assert self._manifest_config(GeneratorConfig, pipeline["data"]) == ran_with

    @pytest.mark.parametrize("uniform_attention", [False, True])
    def test_train_desk_recipe(self, pipeline, tmp_path, uniform_attention):
        config = dataclasses.replace(
            theory.desk_train_config(7), epochs=1, uniform_attention=uniform_attention
        )
        cfg = self._write_config(tmp_path / "t.cfg", config)
        out = str(tmp_path / "run")
        assert main(["train", pipeline["data"], "--config", cfg, "--out", out]) == 0
        assert self._manifest_config(TrainConfig, out) == config

    def test_eval(self, pipeline, tmp_path):
        params = EvalParams(k=7, n_reformulations=3, oracle_pool=10, test_fraction=0.25)
        cfg = self._write_config(tmp_path / "e.cfg", params)
        out = str(tmp_path / "x")
        assert main(["eval", pipeline["data"], "--model", "baseline",
                     "--config", cfg, "--out", out]) == 0
        assert self._manifest_config(EvalParams, out) == params
        assert self._manifest_config(EvalParams, pipeline["eval_hash"]) == EvalParams()


def test_options_that_did_nothing_are_rejected(tmp_path, capsys):
    out = str(tmp_path / "x")
    for argv in (
        ["validate", "blue", "--out", out, "--config", "c.cfg"],
        ["validate", "blue", "--out", out, "--threads", "2"],
        ["train", "data", "--config", "t.cfg", "--out", out, "--threads", "2"],
        ["eval", "data", "--model", "baseline", "--out", out, "--threads", "2"],
        ["generate", "--config", "g.cfg", "--out", out, "--threads", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConfigParsing:
    def test_split_query_ids_partition(self):
        store, probe = split_query_ids(100, 0.25, seed=3)
        for ids in (store, probe):
            assert ids.dtype == np.int64 and np.all(np.diff(ids) > 0)
        assert len(probe) == 25
        assert np.array_equal(np.sort(np.concatenate([store, probe])), np.arange(100))
        again = split_query_ids(100, 0.25, seed=3)
        assert np.array_equal(again[0], store) and np.array_equal(again[1], probe)

    def test_split_extremes_keep_both_sides_nonempty(self):
        store, probe = split_query_ids(10, 0.99, seed=0)
        assert len(store) >= 1 and len(probe) >= 1
        for ids in split_query_ids(10, 0.0, seed=0):
            assert ids.dtype == np.int64 and np.array_equal(ids, np.arange(10))


@pytest.mark.parametrize("bad", ["line", "value"])
@pytest.mark.parametrize(
    "command, text, line",
    [
        ("generate", GEN_CONFIG, "lam = 3.0"),
        ("train", TRAIN_CONFIG, "epochs = 3"),
        ("eval", "test_fraction = 0.2\n", "test_fraction = 0.2"),
    ],
    ids=["generate", "train", "eval"],
)
def test_config_file_errors_name_the_file(pipeline, tmp_path, capsys, command, text, line, bad):
    key = line.partition(" = ")[0]
    cfg = _write(tmp_path / "bad.cfg", text.replace(line, "oops" if bad == "line" else f"{key} = x"))
    inputs = {
        "generate": [],
        "train": [pipeline["data"]],
        "eval": [pipeline["data"], "--model", "baseline"],
    }[command]
    out = tmp_path / "out"
    assert main([command, *inputs, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: " + ("line " if bad == "line" else f"{key}: ")), err
    assert not out.exists()


def _child_env():
    """os.environ with PYTHONPATH led by the directory of the queryemb package this
    session imported, so a child interpreter runs the same checkout."""
    src = str(Path(queryemb.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


_FOOTPRINT_CHILD = """\
import json, sys
import queryemb.cli

def loaded():
    names = ("scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.special")
    return [name for name in names if name in sys.modules]

at_import = loaded()
assert queryemb.cli.main(["generate", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
assert queryemb.cli.main(["validate", "mean", "--out", sys.argv[3]]) == 0
print(json.dumps({"import": at_import, "run": loaded()}))
"""


def test_import_and_statistical_runs_leave_scipy_optimize_and_special_unloaded(tmp_path):
    """Only scipy.sparse is on the CLI's import path: scipy.optimize is
    imported inside fit_betas (figure1), and scipy.special nowhere.  A fresh
    interpreter, because the test modules import scipy.stats themselves."""
    cfg = _write(tmp_path / "g.cfg", GEN_CONFIG.replace("n_queries = 400", "n_queries = 50"))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_CHILD, cfg, str(tmp_path / "data"), str(tmp_path / "val")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded["import"] == ["scipy.sparse"]
    assert "scipy.optimize" not in loaded["run"] and "scipy.special" not in loaded["run"]


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _assert_help_lists_subcommands(proc):
    assert proc.returncode == 0, proc.stderr
    for word in ("generate", "train", "eval", "validate"):
        assert word in proc.stdout


def test_console_script_help(tmp_path):
    """The `queryemb` script declared in pyproject.toml starts the CLI.

    The declared `module:attr` target is run the way an installed wrapper
    runs it, so no install is needed. PYTHONPATH starts with the absolute
    directory of the `queryemb` package this session imported, so the child
    runs the same checkout whatever the working directory or site-packages.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["queryemb"]
    module, _, attr = target.partition(":")
    code = f"import sys; from {module} import {attr.split('.')[0]}; sys.exit({attr}())"
    proc = subprocess.run(
        [sys.executable, "-c", code, "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=_child_env(),
    )
    _assert_help_lists_subcommands(proc)


@pytest.mark.skipif(
    shutil.which("queryemb") is None, reason="no queryemb executable on PATH"
)
def test_installed_console_script_help():
    proc = subprocess.run(
        ["queryemb", "--help"], capture_output=True, text=True, timeout=60
    )
    _assert_help_lists_subcommands(proc)
