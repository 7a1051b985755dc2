"""Write the byte-stable result lines of a fixed set of runs to one file.

Usage, from any directory:

    python3 scripts/stable_lines.py --checkout OLD --out old.txt
    python3 scripts/stable_lines.py --checkout NEW --out new.txt
    cmp old.txt new.txt

``--checkout`` names the source tree whose ``src/`` is imported (default:
the checkout holding this script), so a tree that lacks this script can be
compared too. The runs are:

* both experiments, ``run_experiment`` at seeds 0 and 1 with count 200 and
  3 epochs: every per-mode results file, then the experiment summary;
* an ``ood_gnn`` ``train`` with a 2-group global memory;
* an ``ood_gnn`` ``train`` with every reweighting setting off its default
  (``q=3 epochs_reweight=7 lr_w=0.02 l2_lambda=0.3``), so a setting that
  does not reach the weight solve changes the output;
* a CLI ``linear_decorr pair_fraction=0.5`` train, then its checkpoint.

Each section starts with a ``# name`` line. Results files are written as
``harness.stable_lines`` gives them, which drops the wall-clock fields;
summaries and the checkpoint are copied verbatim. A full run takes about
5 s on two cores.

The first line is ``# blas_threads N``: the thread count of numpy's
OpenBLAS, read as ``perfbench/run.py`` reads it (``None`` when there is no
OpenBLAS). A BLAS call may sum in another order under another thread
count, and the ``q=3`` case's objectives do move in their last digits. So
compare two outputs made under one setting (for example
``OPENBLAS_NUM_THREADS=1`` for both); a ``cmp`` across settings fails on
line 1, which says why.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile

COUNT = 200
EPOCHS = 3
SEEDS = (0, 1)


def _noise_split(gd, count: int, seed: int):
    full = gd.gen_triangles_dataset(count, min_nodes=5, max_nodes=12,
                                    rng_seed=seed)
    return gd.apply_split(full, gd.SplitSpec(kind="by_feature_noise",
                                             noise_sigma=0.1, seed=seed))


def blas_threads():
    """OpenBLAS's thread count, read by ``perfbench/run.py``'s own reader."""
    import numpy
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "perfbench"))
    import run  # importing the runner starts no benchmark
    return run._blas_threads(numpy)


def collect(work: str) -> list[str]:
    """Run every case in ``work`` and return the output lines."""
    from decorgnn import cli
    from decorgnn import graphdata as gd
    from decorgnn import harness as hn

    lines = [f"# blas_threads {blas_threads()}"]
    for name in sorted(hn.EXPERIMENTS):
        out_dir = os.path.join(work, name)
        hn.run_experiment(name, seeds=SEEDS, out_dir=out_dir, count=COUNT,
                          overrides={"epochs": EPOCHS})
        for entry in sorted(os.listdir(out_dir)):
            lines.append(f"# {name}/{entry}")
            path = os.path.join(out_dir, entry)
            if entry.endswith(".jsonl"):
                lines += hn.stable_lines(path)
            else:
                with open(path, encoding="utf-8") as fh:
                    lines += fh.read().splitlines()

    train_set, test_set = _noise_split(gd, COUNT, 0)
    cfg = hn.TrainConfig(mode="ood_gnn", k_groups=2, gammas=(0.9, 0.5),
                         epochs=EPOCHS, seed=0)
    _, report = hn.train(train_set, test_set, cfg)
    memory_results = os.path.join(work, "memory.jsonl")
    hn.write_results(memory_results, report)
    lines.append("# ood_gnn k_groups=2")
    lines += hn.stable_lines(memory_results)

    cfg = hn.TrainConfig(mode="ood_gnn", q=3, epochs_reweight=7, lr_w=0.02,
                         l2_lambda=0.3, epochs=2, seed=1)
    _, report = hn.train(train_set, test_set, cfg)
    settings_results = os.path.join(work, "settings.jsonl")
    hn.write_results(settings_results, report)
    lines.append("# ood_gnn q=3 epochs_reweight=7 lr_w=0.02 l2_lambda=0.3")
    lines += hn.stable_lines(settings_results)

    data = os.path.join(work, "graphs.jsonl")
    cli_results = os.path.join(work, "cli.jsonl")
    checkpoint = os.path.join(work, "model.jsonl")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["gen", "--out", data, "--count", str(COUNT),
                      "--min-nodes", "5", "--max-nodes", "12", "--seed", "0"],
                     ["train", "--data", data, "--results", cli_results,
                      "--checkpoint", checkpoint, "mode=linear_decorr",
                      "pair_fraction=0.5", "split_kind=by_feature_noise",
                      "split_sigma=0.1", f"epochs={EPOCHS}", "seed=0"]):
            code = cli.main(argv)
            if code:
                raise SystemExit(f"decorgnn {argv[0]} exited {code}")
    lines.append("# cli linear_decorr pair_fraction=0.5")
    lines += hn.stable_lines(cli_results)
    lines.append("# cli checkpoint")
    with open(checkpoint, encoding="utf-8") as fh:
        lines += fh.read().splitlines()
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.abspath(args.checkout), "src"))
    with tempfile.TemporaryDirectory() as work:
        lines = collect(work)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    import decorgnn
    print(f"wrote {len(lines)} lines to {args.out} from {decorgnn.__file__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
