"""Backend selection: compiled kernel when available, pure Python otherwise.

The compiled kernel covers values up to ~2^126; anything beyond that (or
a mapping whose parameters are too large for it) transparently falls back
to the pure walkers, so results never depend on which backend ran.  Pass
backend="pure" or backend="compiled" to Engine (or to the searches) to
force a choice.  An Engine is shared by every block of a search:
search_range runs each wave of `threads` blocks on a thread pool, and
walks keep no state on the Engine.
"""

from __future__ import annotations

from . import _pykernel

try:
    from . import _kernel
except ImportError:  # extension not built
    _kernel = None

ENTERED = _pykernel.ENTERED
NEW_CYCLE = _pykernel.NEW_CYCLE
STEP_CUTOFF = _pykernel.STEP_CUTOFF
MAG_CUTOFF = _pykernel.MAG_CUTOFF
OVERFLOW = _pykernel.OVERFLOW

_KERNEL_MAX_STEPS = 1 << 59


def default_backend() -> str:
    return "compiled" if _kernel is not None else "pure"


def available_backends() -> tuple[str, ...]:
    return ("compiled", "pure") if _kernel is not None else ("pure",)


class Engine:
    """Per-mapping walk executor with automatic overflow fallback."""

    def __init__(self, mapping, backend: str | None = None):
        name = backend or default_backend()
        if name not in ("pure", "compiled"):
            raise ValueError(f"unknown backend {name!r}")
        if name == "compiled" and _kernel is None:
            raise ValueError("compiled backend requested but the extension is not built")
        self.mapping = mapping
        self._pure_map = _pykernel.prepare(mapping.d, mapping.branches)
        self._kmap = None
        if name == "compiled":
            try:
                self._kmap = _kernel.prepare(mapping.d, mapping.branches)
            except ValueError:
                self._kmap = None  # parameters outside the native range
        self.backend_name = "compiled" if self._kmap is not None else "pure"

    def member_table(self, items):
        items = list(items)
        ktable = _kernel.MemberTable(items) if self._kmap is not None else None
        return (ktable, _pykernel.MemberTable(items))

    def _walk(self, name, start, max_steps, max_magnitude, tables):
        """Run walker `name` in the kernel, or in pure Python on OVERFLOW."""
        ktable, ptable = tables
        if self._kmap is not None and max_steps < _KERNEL_MAX_STEPS:
            res = getattr(_kernel, name)(self._kmap, start, max_steps, max_magnitude, ktable)
            if res[0] != OVERFLOW:
                return res
        return getattr(_pykernel, name)(self._pure_map, start, max_steps, max_magnitude, ptable)

    def walk_brent(self, start, max_steps, max_magnitude, tables):
        return self._walk("walk_brent", start, max_steps, max_magnitude, tables)

    def walk_tally(self, start, max_steps, max_magnitude, tables):
        return self._walk("walk_tally", start, max_steps, max_magnitude, tables)
