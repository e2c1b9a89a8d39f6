"""One-stop logging setup for the whole package.

Library modules emit through ``repro.log.get_logger(...)`` (a child of the
``repro`` logger) instead of printing; nothing is shown unless the
application configures logging.  The CLI calls :func:`configure` exactly
once from its verbosity flags:

* ``--quiet``  -> WARNING (progress lines suppressed)
* default      -> INFO    (sweep progress, experiment notes)
* ``-v``       -> DEBUG   (per-stage detail, trace collection, cache keys)
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

_ROOT_NAME = "repro"
_configured = False


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted.

    Binding the stream at :func:`configure` time would keep writing to a
    stream that was since swapped out and closed (test runners capture and
    close stderr per test); a closed or missing stream drops the record.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr

    def emit(self, record: logging.LogRecord) -> None:
        stream = self.stream
        if stream is None or getattr(stream, "closed", False):
            return
        super().emit(record)


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the package root: ``get_logger("sweep")`` -> repro.sweep."""
    return logging.getLogger(f"{_ROOT_NAME}.{name}" if name else _ROOT_NAME)


def configure(
    verbosity: int = 0,
    quiet: bool = False,
    stream=None,
    force: bool = False,
) -> logging.Logger:
    """Configure the ``repro`` root logger once (idempotent).

    ``verbosity`` counts ``-v`` flags (0 -> INFO, >=1 -> DEBUG); ``quiet``
    wins and raises the level to WARNING.  Later calls only adjust the
    level unless ``force`` re-installs the handler (tests use this with a
    custom ``stream``).  Without a ``stream``, records go to the
    ``sys.stderr`` of the moment they are emitted.
    """
    global _configured
    logger = get_logger()
    level = logging.WARNING if quiet else (
        logging.DEBUG if verbosity >= 1 else logging.INFO
    )
    if not _configured or force:
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
        handler = _StderrHandler() if stream is None else logging.StreamHandler(stream)
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        logger.addHandler(handler)
        logger.propagate = False
        _configured = True
    logger.setLevel(level)
    return logger
