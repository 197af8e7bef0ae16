"""Persistent content-addressed artifact cache with integrity checks.

Layout under the cache root (``$REPRO_CACHE_DIR`` or
``~/.cache/repro``)::

    records/<spec_hash>.pkl      finished RunRecords
    compiled/<compile_hash>.pkl  Compiled products (partition/trace/stream)
    quarantine/                  corrupted entries, moved aside for autopsy
    ledger.jsonl                 append-only run ledger (see ledger.py)

Every key is salted with a **code version** — a digest of the
``repro`` package sources — so editing the simulator or compiler
invalidates stale artifacts without any manual versioning.  Writes
are atomic (temp file in the same directory + ``os.replace``) so
concurrent workers and interrupted runs never leave torn pickles.

Entries are framed with a SHA-256 payload checksum (``RPC1`` magic +
32-byte digest + pickle payload).  A checksum mismatch or an
unreadable legacy entry is **never** silently swallowed: the file is
moved to ``quarantine/`` (one warning per cache instance), counted in
``repro cache stats``, and ``repro cache doctor`` audits the whole
store — verifying every entry, upgrading readable legacy entries to
the framed format, and quarantining the rest.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import uuid
import warnings
from pathlib import Path
from typing import Dict, Optional

from repro.harness.spec import RunSpec

_code_version_cache: Optional[str] = None

#: framed-entry magic; bump the suffix if the framing itself changes
_MAGIC = b"RPC1"
_DIGEST_BYTES = 32

#: exception set meaning "this payload does not unpickle in this
#: process" — stale class shapes as well as outright corruption
_UNPICKLE_ERRORS = (
    OSError, pickle.UnpicklingError, EOFError, AttributeError,
    ImportError, IndexError, ValueError, TypeError, KeyError,
)


def code_version() -> str:
    """Digest of every ``repro`` source file (the default cache salt)."""
    global _code_version_cache
    if _code_version_cache is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        sha = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            sha.update(str(path.relative_to(root)).encode("utf-8"))
            sha.update(b"\x00")
            sha.update(path.read_bytes())
        _code_version_cache = sha.hexdigest()
    return _code_version_cache


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


class ArtifactCache:
    """Pickle store keyed by content hash + code-version salt.

    The object is cheap and picklable (a path and a salt string), so
    the scheduler can hand it to worker processes, which write
    compiled artifacts directly from the worker side.
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 salt: Optional[str] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.salt = code_version() if salt is None else salt
        self._corruption_warned = False

    # -- paths ---------------------------------------------------------

    @property
    def records_dir(self) -> Path:
        return self.root / "records"

    @property
    def compiled_dir(self) -> Path:
        return self.root / "compiled"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    @property
    def ledger_path(self) -> Path:
        return self.root / "ledger.jsonl"

    # -- framing -------------------------------------------------------

    @staticmethod
    def _frame(obj) -> bytes:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        return _MAGIC + hashlib.sha256(payload).digest() + payload

    @staticmethod
    def _checksum_ok(raw: bytes) -> bool:
        """True when ``raw`` is a framed entry with a valid digest."""
        head = len(_MAGIC) + _DIGEST_BYTES
        digest = raw[len(_MAGIC):head]
        return hashlib.sha256(raw[head:]).digest() == digest

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupted entry aside instead of deleting evidence."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / f"{path.name}.{uuid.uuid4().hex[:8]}"
        try:
            os.replace(path, target)
        except OSError:
            return  # a concurrent worker already moved or removed it
        if not self._corruption_warned:
            self._corruption_warned = True
            warnings.warn(
                f"quarantined corrupted cache entry {path.name} ({reason}); "
                f"inspect {self.quarantine_dir} or run 'repro cache doctor'",
                RuntimeWarning,
                stacklevel=3,
            )

    # -- pickle I/O ----------------------------------------------------

    def _load(self, path: Path):
        try:
            raw = path.read_bytes()
        except (FileNotFoundError, OSError):
            return None
        if raw.startswith(_MAGIC):
            if not self._checksum_ok(raw):
                self._quarantine(path, "checksum mismatch")
                return None
            payload = raw[len(_MAGIC) + _DIGEST_BYTES:]
            try:
                obj = pickle.loads(payload)
            except _UNPICKLE_ERRORS:
                # Checksum fine but classes moved on: stale, not torn.
                return None
            self._touch(path)
            return obj
        # Legacy (pre-checksum) entry: readable -> miss-free load;
        # unreadable -> corruption, quarantined.
        try:
            obj = pickle.loads(raw)
        except _UNPICKLE_ERRORS:
            self._quarantine(path, "unreadable legacy entry")
            return None
        self._touch(path)
        return obj

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh mtime on a hit, so ``prune`` evicts by recency of
        *use* rather than recency of creation."""
        try:
            os.utime(path, None)
        except OSError:
            pass  # pruned or quarantined concurrently: still a hit

    def _store(self, path: Path, obj) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        try:
            with open(tmp, "wb") as handle:
                handle.write(self._frame(obj))
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()

    # -- records -------------------------------------------------------

    def get_record(self, spec: RunSpec):
        return self._load(self.records_dir / f"{spec.spec_hash(self.salt)}.pkl")

    def put_record(self, spec: RunSpec, record) -> None:
        self._store(
            self.records_dir / f"{spec.spec_hash(self.salt)}.pkl", record
        )

    # -- compiled products ---------------------------------------------

    def get_compiled(self, spec: RunSpec):
        return self._load(
            self.compiled_dir / f"{spec.compile_hash(self.salt)}.pkl"
        )

    def put_compiled(self, spec: RunSpec, compiled) -> None:
        self._store(
            self.compiled_dir / f"{spec.compile_hash(self.salt)}.pkl", compiled
        )

    # -- maintenance ---------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Entry counts and total size (for ``repro cache stats``)."""
        out = {"records": 0, "compiled": 0, "quarantined": 0, "bytes": 0,
               "records_bytes": 0, "compiled_bytes": 0}
        for kind, directory in (
            ("records", self.records_dir),
            ("compiled", self.compiled_dir),
        ):
            if not directory.is_dir():
                continue
            for path in directory.glob("*.pkl"):
                size = path.stat().st_size
                out[kind] += 1
                out[f"{kind}_bytes"] += size
                out["bytes"] += size
        if self.quarantine_dir.is_dir():
            out["quarantined"] = sum(
                1 for p in self.quarantine_dir.iterdir() if p.is_file()
            )
        out["ledger_lines"] = 0
        out["ledger_bytes"] = 0
        if self.ledger_path.is_file():
            with open(self.ledger_path, "rb") as handle:
                data = handle.read()
            out["ledger_lines"] = data.count(b"\n")
            out["ledger_bytes"] = len(data)
        return out

    def doctor(self) -> Dict[str, int]:
        """Audit every entry: verify, upgrade legacy, quarantine bad.

        Returns counts: ``checked`` entries scanned, ``ok`` verified
        framed entries, ``upgraded`` legacy entries rewritten with
        checksums, ``quarantined`` corrupted entries moved aside,
        ``stale`` checksum-valid entries that no longer unpickle
        (left in place; the code-version salt already keys them away).
        """
        out = {"checked": 0, "ok": 0, "upgraded": 0, "quarantined": 0,
               "stale": 0}
        for directory in (self.records_dir, self.compiled_dir):
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.pkl")):
                out["checked"] += 1
                try:
                    raw = path.read_bytes()
                except OSError:
                    continue
                if raw.startswith(_MAGIC):
                    if not self._checksum_ok(raw):
                        self._quarantine(path, "checksum mismatch")
                        out["quarantined"] += 1
                        continue
                    payload = raw[len(_MAGIC) + _DIGEST_BYTES:]
                    try:
                        pickle.loads(payload)
                    except _UNPICKLE_ERRORS:
                        out["stale"] += 1
                        continue
                    out["ok"] += 1
                    continue
                try:
                    obj = pickle.loads(raw)
                except _UNPICKLE_ERRORS:
                    self._quarantine(path, "unreadable legacy entry")
                    out["quarantined"] += 1
                    continue
                self._store(path, obj)
                out["upgraded"] += 1
        return out

    def prune(self, max_bytes: int) -> Dict[str, int]:
        """Evict least-recently-used artifacts until the store fits.

        Repeated sweeps accrete records without bound; ``prune`` caps
        the ``records/`` + ``compiled/`` payload at ``max_bytes``,
        evicting by ``st_mtime`` (oldest first — every cache *write*
        refreshes mtime via ``os.replace``, and every hit touches it
        in :meth:`_load`, so mtime approximates recency of use).
        Quarantined entries and the ledger are never candidates:
        quarantine is evidence, not cache, and the ledger is the audit
        trail.

        Returns ``{"removed", "freed_bytes", "kept", "kept_bytes"}``.
        """
        entries = []
        for directory in (self.records_dir, self.compiled_dir):
            if not directory.is_dir():
                continue
            for path in directory.glob("*.pkl"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        out = {"removed": 0, "freed_bytes": 0, "kept": len(entries),
               "kept_bytes": total}
        if max_bytes < 0:
            raise ValueError("prune needs max_bytes >= 0")
        entries.sort(key=lambda e: (e[0], e[2].name))
        index = 0
        while total > max_bytes and index < len(entries):
            _, size, path = entries[index]
            index += 1
            try:
                path.unlink()
            except OSError:
                continue  # a concurrent worker got there first
            total -= size
            out["removed"] += 1
            out["freed_bytes"] += size
            out["kept"] -= 1
            out["kept_bytes"] -= size
        return out

    def clear(self) -> int:
        """Delete all cached artifacts and the ledger; return count."""
        removed = 0
        for directory in (self.records_dir, self.compiled_dir):
            if not directory.is_dir():
                continue
            for path in directory.glob("*.pkl"):
                path.unlink()
                removed += 1
        if self.quarantine_dir.is_dir():
            for path in self.quarantine_dir.iterdir():
                if path.is_file():
                    path.unlink()
                    removed += 1
        if self.ledger_path.exists():
            self.ledger_path.unlink()
        return removed
