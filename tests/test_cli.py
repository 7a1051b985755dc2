import dataclasses
import json
import warnings

import numpy as np
import pytest

from decorgnn import cli
from decorgnn import graphdata as gd
from decorgnn import harness as hn
from decorgnn.encoder import DivergenceError
from decorgnn.graphdata import load_dataset


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "graphs.jsonl"
    code = cli.main(["gen", "--out", str(path), "--count", "120",
                     "--min-nodes", "5", "--max-nodes", "16",
                     "--seed", "7"])
    assert code == 0
    return path


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1
    assert "error" in capsys.readouterr().err


def test_gen_writes_loadable_dataset(data_file):
    dataset = load_dataset(data_file)
    assert len(dataset) == 120
    assert dataset.num_classes == 10


def test_gen_missing_required_flag_exits_1():
    assert cli.main(["gen", "--count", "5"]) == 1


def test_gen_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    assert cli.main(["gen", "--out", str(out), "--count", "5",
                     "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not out.exists()


def test_gen_impossible_request_exits_2(tmp_path, capsys):
    code = cli.main(["gen", "--out", str(tmp_path / "x.jsonl"),
                     "--count", "5", "--min-nodes", "2", "--max-nodes", "2"])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def test_gen_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # A node count whose n(n-1)/2 pairs cannot be allocated; the real
    # allocation would ask for many GiB, so it is stood in for.
    def exhausted(n, p, rng):
        raise MemoryError(f"cannot allocate {n * (n - 1) // 2} pairs")

    monkeypatch.setattr(gd, "_sample_edges", exhausted)
    out = tmp_path / "x.jsonl"
    assert cli.main(["gen", "--out", str(out), "--count", "5",
                     "--min-nodes", "90000", "--max-nodes", "90000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: graph 0:") and "90000-node" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_train_end_to_end(data_file, tmp_path, capsys):
    results = tmp_path / "run.jsonl"
    ckpt = tmp_path / "model.jsonl"
    code = cli.main(["train", "--data", str(data_file),
                     "--results", str(results), "--checkpoint", str(ckpt),
                     "mode=ood_gnn", "epochs=2", "hidden_dim=16",
                     "epochs_reweight=5", "split_max_nodes=10"])
    assert code == 0
    assert "test_acc=" in capsys.readouterr().out
    assert results.exists() and ckpt.exists()
    records, summary = hn.load_results(results)
    assert len(records) == 2
    assert summary["config"]["hidden_dim"] == 16


def test_train_rejects_unknown_key(data_file, tmp_path, capsys):
    code = cli.main(["train", "--data", str(data_file),
                     "--results", str(tmp_path / "r.jsonl"), "momentum=0.9"])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_train_rejects_bad_values(data_file, tmp_path, capsys):
    base = ["train", "--data", str(data_file),
            "--results", str(tmp_path / "r.jsonl")]
    assert cli.main(base + ["lr=0.5"]) == 1          # not an allowed rate
    assert cli.main(base + ["epochs=ten"]) == 1      # not a number
    assert cli.main(base + ["epochs"]) == 1          # missing '='
    # reweighting settings are checked when the config is built, in every
    # mode, before any data is read
    for bad in (["lr_w=0"], ["lr_w=0", "mode=baseline_uniform"], ["q=0"],
                ["pair_fraction=2"], ["hidden_dim=2", "pair_fraction=0.3"],
                ["lr_w=nan"], ["lr_w=inf"], ["l2_lambda=nan"],
                ["l2_lambda=-1"], ["seed=-1"]):
        capsys.readouterr()
        assert cli.main(base + bad) == 1, bad
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
    assert not (tmp_path / "r.jsonl").exists()


def test_every_int_setting_parses_an_int_and_refuses_a_fraction(
        data_file, tmp_path, capsys):
    base = ["train", "--data", str(data_file),
            "--results", str(tmp_path / "r.jsonl")]
    ints = [f.name for f in dataclasses.fields(hn.TrainConfig)
            if f.type == "int"]
    assert "epochs" in ints and "q" in ints
    for name in ints:
        value = cli.parse_config_pairs([f"{name}=3"])[0][name]
        assert type(value) is int and value == 3, name
        assert cli.main(base + [f"{name}=3.5"]) == 1, name
        assert "bad value" in capsys.readouterr().err
    assert not (tmp_path / "r.jsonl").exists()


def test_train_rejects_bad_split_values_before_reading_data(data_file,
                                                           tmp_path, capsys):
    results = tmp_path / "r.jsonl"
    # a missing data file would exit 2, so exit 1 shows nothing was read
    for data in (data_file, tmp_path / "absent.jsonl"):
        for bad in (["split_kind=by_feature_noise", "split_seed=-3"],
                    ["split_kind=bogus"], ["split_max_nodes=0"],
                    ["split_kind=by_feature_noise", "split_sigma=-1"],
                    ["split_kind=by_feature_noise", "split_sigma=nan"]):
            capsys.readouterr()
            code = cli.main(["train", "--data", str(data),
                             "--results", str(results)] + bad)
            assert code == 1, bad
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1, err
    assert not results.exists()


def test_split_leaving_a_side_empty_is_a_data_error(data_file, tmp_path,
                                                   capsys):
    code = cli.main(["train", "--data", str(data_file),
                     "--results", str(tmp_path / "r.jsonl"),
                     "split_max_nodes=100"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert not (tmp_path / "r.jsonl").exists()


def test_noise_overflowing_split_sigma_exits_1(data_file, tmp_path, capsys):
    results = tmp_path / "r.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning included
        code = cli.main(["train", "--data", str(data_file),
                         "--results", str(results),
                         "split_kind=by_feature_noise", "split_sigma=1e308"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: split_sigma") and err.count("\n") == 1, err
    assert not results.exists()


def test_features_overflowing_under_noise_exit_2(tmp_path, capsys):
    top = float(np.finfo(np.float64).max)
    data = tmp_path / "huge.jsonl"
    data.write_text("".join(
        json.dumps({"n": 3, "edges": [[0, 1]], "x": [[top, top]] * 3,
                    "y": i % 2}) + "\n" for i in range(20)))
    results = tmp_path / "r.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["train", "--data", str(data), "--results",
                         str(results), "split_kind=by_feature_noise",
                         "split_sigma=1e300"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "non-finite" in err, err
    assert err.count("\n") == 1
    assert not results.exists()


def test_train_missing_data_file_exits_2(tmp_path):
    code = cli.main(["train", "--data", str(tmp_path / "nope.jsonl"),
                     "--results", str(tmp_path / "r.jsonl")])
    assert code == 2


def test_train_corrupt_data_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    for text in ("{broken\n",
                 '{"n": 2, "edges": null, "x": [[1.0], [0.0]], "y": 0}\n'):
        bad.write_text(text)
        code = cli.main(["train", "--data", str(bad),
                         "--results", str(tmp_path / "r.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{bad}:1" in err
        assert err.count("\n") == 1


def test_memory_run_smaller_than_a_batch_exits_2(tmp_path, capsys):
    data = tmp_path / "small.jsonl"
    assert cli.main(["gen", "--out", str(data), "--count", "40",
                     "--seed", "0"]) == 0
    capsys.readouterr()
    code = cli.main(["train", "--data", str(data),
                     "--results", str(tmp_path / "r.jsonl"),
                     "k_groups=1", "gammas=0.5", "split_kind=by_size",
                     "split_max_nodes=6", "epochs=1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("data error: ") and "batch_size=32" in err
    assert not (tmp_path / "r.jsonl").exists()


def test_divergence_exits_3(data_file, tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise DivergenceError("epoch 0 batch 1: synthetic")

    monkeypatch.setattr(cli.hn, "train", explode)
    code = cli.main(["train", "--data", str(data_file),
                     "--results", str(tmp_path / "r.jsonl")])
    assert code == 3
    assert "divergence" in capsys.readouterr().err


def test_report_prints_summary(data_file, tmp_path, capsys):
    results = tmp_path / "run.jsonl"
    assert cli.main(["train", "--data", str(data_file),
                     "--results", str(results),
                     "mode=ood_gnn", "epochs=2", "hidden_dim=16",
                     "epochs_reweight=5"]) == 0
    capsys.readouterr()
    assert cli.main(["report", "--results", str(results),
                     "--histogram"]) == 0
    out = capsys.readouterr().out
    assert "final_test_acc=" in out
    assert "mode=ood_gnn" in out
    assert "[" in out       # histogram rows


def test_report_histogram_refused_for_uniform_runs(data_file, tmp_path,
                                                   capsys):
    results = tmp_path / "run.jsonl"
    assert cli.main(["train", "--data", str(data_file),
                     "--results", str(results),
                     "mode=baseline_uniform", "epochs=1",
                     "hidden_dim=16"]) == 0
    assert cli.main(["report", "--results", str(results),
                     "--histogram"]) == 1


def test_report_rejects_nonpositive_bins(data_file, tmp_path, capsys):
    results = tmp_path / "run.jsonl"
    assert cli.main(["train", "--data", str(data_file),
                     "--results", str(results),
                     "mode=ood_gnn", "epochs=1", "hidden_dim=16",
                     "epochs_reweight=2"]) == 0
    for bins in ("0", "-3"):
        capsys.readouterr()
        assert cli.main(["report", "--results", str(results), "--histogram",
                         "--bins", bins]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_report_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["report", "--results", str(tmp_path / "no.jsonl")]) == 2
    results = tmp_path / "run.jsonl"
    results.write_text('{"kind": "epoch", "epoch": 0}\n[1, 2]\n')
    capsys.readouterr()
    assert cli.main(["report", "--results", str(results)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{results}:2" in err
    assert err.count("\n") == 1
    # a summary lacking fields report prints
    for summary in ({"kind": "summary"},
                    {"kind": "summary", "config": {"mode": "ood_gnn"},
                     "epochs_run": 1}):
        results.write_text(json.dumps(summary) + "\n")
        assert cli.main(["report", "--results", str(results)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(results) in err
        assert err.count("\n") == 1


def test_report_incomplete_last_epoch_record_exits_2(tmp_path, capsys):
    summary = {"kind": "summary",
               "config": {"mode": "baseline_uniform", "seed": 0, "lr": 0.001},
               "epochs_run": 1, "final_train_acc": 0.5,
               "final_test_acc": 0.25, "constraint_checks": 0,
               "constraint_violations": 0}
    results = tmp_path / "run.jsonl"
    for last in ({"kind": "epoch", "epoch": 0},
                 {"kind": "epoch", "epoch": 0, "loss": 1.0},
                 {"kind": "epoch", "epoch": 0, "objective": None},
                 {"kind": "epoch", "epoch": 0, "loss": "1.0",
                  "objective": None},
                 {"kind": "epoch", "epoch": 0, "loss": True,
                  "objective": None},
                 {"kind": "epoch", "epoch": 0, "loss": 1.0,
                  "objective": [0.5]}):
        results.write_text(json.dumps(last) + "\n" + json.dumps(summary)
                           + "\n")
        capsys.readouterr()
        assert cli.main(["report", "--results", str(results)]) == 2, last
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(results) in err
        assert err.count("\n") == 1
    # numbers report cannot print: past the float range, or not finite
    good = {"kind": "epoch", "epoch": 0, "loss": 1.0, "objective": None}
    for bad in (10 ** 400, float("nan"), float("inf")):
        for last, line in ((good, {**summary, "final_train_acc": bad}),
                           (good, {**summary, "final_test_acc": bad}),
                           ({**good, "loss": bad}, summary),
                           ({**good, "objective": bad}, summary)):
            results.write_text(json.dumps(last) + "\n" + json.dumps(line)
                               + "\n")
            capsys.readouterr()
            assert cli.main(["report", "--results", str(results)]) == 2, (
                last, line)
            err = capsys.readouterr().err
            assert err.startswith("data error:") and str(results) in err
            assert err.count("\n") == 1
    for objective in (None, 0.125):
        last = {"kind": "epoch", "epoch": 0, "loss": 1.0,
                "objective": objective}
        results.write_text(json.dumps(last) + "\n" + json.dumps(summary)
                           + "\n")
        assert cli.main(["report", "--results", str(results)]) == 0
        out = capsys.readouterr().out
        assert f"loss=1.0000 objective={objective}" in out


def test_experiment_command_runs_and_summarizes(tmp_path, capsys):
    code = cli.main(["experiment", "--name", "triangles_size_shift",
                     "--out-dir", str(tmp_path), "--seeds", "0",
                     "--count", "80", "epochs=2", "hidden_dim=16",
                     "epochs_reweight=5"])
    assert code == 0
    out = capsys.readouterr().out
    for mode in hn.MODES:
        assert mode in out
    summary = json.loads(
        (tmp_path / "triangles_size_shift_summary.json").read_text())
    assert summary["seeds"] == [0]


def test_experiment_with_one_training_graph_blames_the_probe(tmp_path,
                                                              capsys):
    # a 2-graph noise split trains on one graph, which leaves the probe's
    # fit set empty
    code = cli.main(["experiment", "--name", "feature_noise_shift",
                     "--out-dir", str(tmp_path), "--seeds", "0",
                     "--count", "2", "epochs=1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("data error: the learning-rate probe needs at least 2 "
                   "training graphs, got 1\n")


def test_experiment_rejects_reserved_keys(tmp_path):
    code = cli.main(["experiment", "--name", "triangles_size_shift",
                     "--out-dir", str(tmp_path), "--seeds", "0",
                     "mode=ood_gnn"])
    assert code == 1


def test_experiment_rejects_unknown_name(tmp_path):
    assert cli.main(["experiment", "--name", "other",
                     "--out-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("seeds", ["1,x", "-1", ","])
def test_experiment_rejects_bad_seeds(tmp_path, capsys, seeds):
    assert cli.main(["experiment", "--name", "triangles_size_shift",
                     "--out-dir", str(tmp_path), "--seeds", seeds]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_report_histogram_rejects_weights_it_cannot_bin(tmp_path, capsys):
    summary = {"kind": "summary",
               "config": {"mode": "ood_gnn", "seed": 0, "lr": 0.001},
               "epochs_run": 1, "final_train_acc": 0.5,
               "final_test_acc": 0.25, "constraint_checks": 2,
               "constraint_violations": 0}
    results = tmp_path / "run.jsonl"
    for weights in ("abc", [1, None], [1.0, True], [0.5, float("nan")],
                    [float("inf")], [10 ** 400], {"w": 1.0}, 2.0,
                    [1e308, -1e308], [0.0, 5e-324]):
        results.write_text(json.dumps({**summary, "final_weights": weights})
                           + "\n")
        capsys.readouterr()
        assert cli.main(["report", "--results", str(results),
                         "--histogram"]) == 2, weights
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "final_weights" in err
        assert err.count("\n") == 1
    for weights in ([1.5, 0.5, 1], []):
        results.write_text(json.dumps({**summary, "final_weights": weights})
                           + "\n")
        assert cli.main(["report", "--results", str(results),
                         "--histogram", "--bins", "2"]) == 0, weights
