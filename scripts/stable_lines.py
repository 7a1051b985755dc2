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

``--against OLD.txt`` says which numbers moved, section by section:

    python3 scripts/stable_lines.py --out new.txt --against old.txt
    python3 scripts/stable_lines.py --against old.txt new.txt

The first form runs the cases, writes ``--out`` and compares it; the
second compares an existing output without running anything. Each
``# section`` of either file gets one line, ``identical`` or what moved,
then one indented line per field that moved: its path in the JSON record
(list entries as ``[]``), how many values moved and the largest relative
change |new - old| / max(|new|, |old|) among them. A section whose lines
are not JSON records is read as one JSON document, and failing that is
reported by the count of lines that differ. The exit status is 0 when
every section is identical and 1 otherwise, as for ``cmp``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
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


def sections(lines: list[str]) -> dict[str, list[str]]:
    """The lines under each ``# name`` header, by name, in file order."""
    out = {}
    body = None
    for line in lines:
        if line.startswith("# "):
            body = out.setdefault(line[2:], [])
        elif body is not None:
            body.append(line)
    return out


def _records(body: list[str]):
    """A section as a list of JSON values: one per line, else the whole
    section as one document; None when it is not JSON."""
    try:
        return [json.loads(line) for line in body]
    except ValueError:
        pass
    try:
        return [json.loads("\n".join(body))]
    except ValueError:
        return None


def _moves(old, new, path: str, out: dict) -> None:
    """Add to ``out[path]`` the relative change of every leaf that moved
    (None for a change that is not a number's)."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            _moves(old[key], new[key], f"{path}.{key}" if path else key, out)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            _moves(a, b, path + "[]", out)
    elif old != new or type(old) is not type(new):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (old, new))
        rel = (abs(new - old) / max(abs(new), abs(old))) if numbers else None
        out.setdefault(path or "(value)", []).append(rel)


def compare(old_lines: list[str], new_lines: list[str]) -> tuple[list[str], bool]:
    """The report lines for two outputs, and whether they are identical in
    every section."""
    old, new = sections(old_lines), sections(new_lines)
    report, same = [], True
    for name in list(old) + [n for n in new if n not in old]:
        if name not in new or name not in old:
            report.append(f"# {name}: only in {'OLD' if name in old else 'NEW'}")
            same = False
            continue
        a, b = old[name], new[name]
        if a == b:
            report.append(f"# {name}: identical")
            continue
        same = False
        moved = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
        head = f"# {name}: {moved} of {max(len(a), len(b))} lines moved"
        ra, rb = _records(a), _records(b)
        if ra is None or rb is None or len(ra) != len(rb):
            report.append(head + " (not compared field by field)")
            continue
        fields = {}
        for x, y in zip(ra, rb):
            _moves(x, y, "", fields)
        report.append(head)
        for path in sorted(fields):
            rels = [r for r in fields[path] if r is not None]
            detail = f"max rel {max(rels):.2g}" if rels else "not numbers"
            if rels and len(rels) < len(fields[path]):
                detail += f"; {len(fields[path]) - len(rels)} not numbers"
            report.append(f"    {path}: {len(fields[path])} values, {detail}")
    return report, same


def _read(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir))
    parser.add_argument("--against", metavar="OLD.txt")
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--out")
    target.add_argument("new", nargs="?", metavar="NEW.txt",
                        help="an existing output to compare with --against")
    args = parser.parse_args(argv)
    if args.new is not None:
        if args.against is None:
            parser.error("NEW.txt is compared only with --against OLD.txt")
        lines = _read(args.new)
    else:
        sys.path.insert(0, os.path.join(os.path.abspath(args.checkout), "src"))
        with tempfile.TemporaryDirectory() as work:
            lines = collect(work)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        import decorgnn
        print(f"wrote {len(lines)} lines to {args.out} from {decorgnn.__file__}")
    if args.against is None:
        return 0
    report, same = compare(_read(args.against), lines)
    print("\n".join(report))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
