"""Atomic file output, the JSON layout and the per-run manifest.

Outputs are written to a temporary file in the target directory and moved
into place, so failed runs never leave partial files behind.  A CLI run
that ends with a result records one manifest (command, parameters,
version, timestamp, outputs, summary) after its data files.  The
timestamp honours SOURCE_DATE_EPOCH for byte-reproducible manifests; the
CLI checks that variable before any command runs, so a bad value writes
no files.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

from .errors import ParameterError


def json_text(payload) -> str:
    """``payload`` as JSON text: sorted keys, indent 2, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_atomic(path, data):
    """Write text, or any bytes-like object, to ``path`` via a temp file and atomic rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    binary = not isinstance(data, str)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        kwargs = {} if binary else {"newline": ""}
        with os.fdopen(fd, "wb" if binary else "w", **kwargs) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def source_date_epoch():
    """SOURCE_DATE_EPOCH as a UTC datetime, or None when it is unset or empty.

    Raises ParameterError, naming the variable, unless it is an integer
    number of seconds that ``datetime`` can represent.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if not epoch:
        return None
    try:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise ParameterError(
            f"SOURCE_DATE_EPOCH must be an integer count of seconds within the "
            f"datetime range, got {epoch!r}"
        ) from exc


def _timestamp() -> str:
    moment = source_date_epoch() or datetime.fromtimestamp(time.time(), tz=timezone.utc)
    return moment.isoformat()


def write_manifest(outdir, command: str, parameters: dict, outputs, summary: dict, version: str):
    """Write <outdir>/manifest.json describing one run; returns its path."""
    manifest = {
        "command": command,
        "parameters": parameters,
        "version": version,
        "timestamp": _timestamp(),
        "outputs": sorted(str(o) for o in outputs),
        "summary": summary,
    }
    path = Path(outdir) / "manifest.json"
    write_atomic(path, json_text(manifest))
    return path
