"""Atomic text writes and the named-parameter manifest format."""

from __future__ import annotations

import json
import os
import secrets
import stat

import numpy as np


class DataFormatError(ValueError):
    """A file's content violates its documented format."""


_NUMBER_TYPES = frozenset((int, float))


def is_number_list(values) -> bool:
    """A JSON list of ints and floats only: np.asarray would also take
    booleans and numeric strings as numbers. The exact types are checked
    in one scan, without a Python-level loop."""
    return (isinstance(values, list)
            and _NUMBER_TYPES.issuperset(map(type, values)))


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file and rename, never a partial file.

    The file ends with the mode a plain ``open(path, "w")`` would leave: a
    file it replaces keeps its mode, and a new one gets 0o666 less the
    process umask, which the kernel applies when the temp file is created
    (``mkstemp`` would make it 0o600).
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    while True:
        tmp = os.path.join(directory, f".partial-{secrets.token_hex(8)}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            try:
                os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_manifest(path, arrays: dict[str, np.ndarray]) -> None:
    """Persist named matrices, one JSON record per line, names sorted.

    Each record carries the shape and row-major values at full float
    precision, so a save/load round trip is exact.
    """
    lines = []
    for name in sorted(arrays):
        a = np.asarray(arrays[name], dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"manifest entries must be 2-D, {name!r} is {a.ndim}-D")
        lines.append(json.dumps({
            "name": name,
            "rows": int(a.shape[0]),
            "cols": int(a.shape[1]),
            "values": a.reshape(-1).tolist(),
        }))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_manifest(path) -> dict[str, np.ndarray]:
    """Read a manifest back into a name -> matrix dict."""
    arrays: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataFormatError(f"{path}:{lineno}: not valid JSON: {err}") from None
            if not isinstance(record, dict) or set(record) != {"name", "rows", "cols", "values"}:
                raise DataFormatError(f"{path}:{lineno}: expected name/rows/cols/values record")
            name, rows, cols = record["name"], record["rows"], record["cols"]
            values = record["values"]
            if not isinstance(name, str):
                raise DataFormatError(f"{path}:{lineno}: name must be a string")
            if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
                raise DataFormatError(f"{path}:{lineno}: bad shape {rows}x{cols}")
            if not is_number_list(values) or len(values) != rows * cols:
                raise DataFormatError(
                    f"{path}:{lineno}: {rows}x{cols} needs a list of {rows * cols} numbers")
            if name in arrays:
                raise DataFormatError(f"{path}:{lineno}: duplicate parameter {name!r}")
            try:
                arrays[name] = np.asarray(values, dtype=np.float64).reshape(rows, cols)
            except (TypeError, ValueError, OverflowError):
                raise DataFormatError(f"{path}:{lineno}: values must be numbers") from None
    return arrays
