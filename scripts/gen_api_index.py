#!/usr/bin/env python3
"""Generate docs/API.md — an index of the public API.

Walks every ``repro`` module, collects the symbols each module exports
via ``__all__``, and writes a markdown index with the first line of
every symbol's docstring.  Regenerate after API changes:

    python scripts/gen_api_index.py
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import repro

OUT = Path(__file__).resolve().parent.parent / "docs" / "API.md"

#: Hand-maintained prose emitted under a module's symbol table — for
#: contracts that span several symbols and belong in the API index
#: itself, not just in one docstring.
NOTES = {
    "repro.cache": """\
**Result cache & resume.** A cache key is the SHA-256 of a canonical
JSON encoding of: the cache-key schema tag, the engine version
(`repro.__version__`), the run-result schema version, the task kind
(`replicate`, `mc_replicate` for `replicate(..., n_channels=C)`, or
`sweep_epoch_targets`), the experiment id, quick/full
mode, the canonical descriptions of the protocol and adversary
instances and the simulator options, and the task's derived-seed path.
Invalidation is by construction: bumping the engine version, the
run-result schema, or `CACHE_KEY_SCHEMA` changes every key, so stale
entries are never served — they are simply unreachable until `cache gc`
drops them.  Because `run_result_to_dict` round-trips bit-for-bit (NaNs
included) and `[runtime]` notes are excluded from persisted reports, a
report produced from a warm cache is byte-identical to the cold-run
report.  Trials with no canonical form (callable predicates, trace
recorders, history-keeping runs) execute uncached and are counted:
`ExecutorStats.cache_uncached` and the `cache.uncached` telemetry
counter.  Misses write back
from inside the worker that computed them, which is what makes an
interrupted sweep resume: re-running the same command recomputes only
the missing cells.""",
    "repro.arena": """\
**Determinism contract.** A search is a pure function of
`(space, protocol, seed, sizes)`: genome generation and breeding draw
from generators derived from the root seed, and each genome's
replications use seed `root_seed + stable_hash("arena", fingerprint)` —
a function of the root seed and the genome alone.  Results are
therefore bit-identical at any `--jobs`, memoizable through
`repro.cache`, and a restarted search resumes from its finished
evaluations.  Corpus records store that exact seed, so `replay`
demands *equality*, not tolerance: any numeric drift is a behaviour
change in the engine, a protocol, or an adversary.  The canonical
round-trip the corpus rests on (`describe` → `rebuild_adversary` →
identical fingerprint) is defined in `repro.adversaries.canonical`,
together with the explicit `UNCACHEABLE_FORMS` residue.""",
    "repro.engine.simulator": """\
**One engine.** `Simulator(protocol, adversary, *, n_channels=1,
max_slots, max_phases, strict, keep_history, trace, resolver, profile)`
runs every model: `n_channels=C > 1` switches on the channel stage
(uniform hops onto `C * L` virtual slots, per-cell jamming, real-slot
caps), and `C = 1` is the paper's single-channel model exactly.  It
has two driver loops: `run(seed)`, the serial oracle, and the lockstep
`run_batch(seeds)`, bit-identical per trial to `run`.
`resolver="sparse" | "dense"` picks the phase resolver; `None` defers
to the `REPRO_RESOLVER` environment variable, the only environment
knob the engine reads.""",
    "repro.telemetry": """\
**Determinism contract.** Telemetry is strictly write-only
observability: nothing in the engine consults the sink, and
`RunConfig.telemetry` is excluded from config equality and the science
fingerprint, so reports are byte-identical with telemetry on or off
(pinned by `scripts/check_parallel_determinism.sh`).  Every append is
one open-lock-write-close cycle through `repro.locking` — the same
discipline as `CacheStore` — so a sink activated before a sweep is
shared by forked executor workers without interleaving, and record
`t` offsets stay comparable across processes because the monotonic
base survives the fork.  When no sink is active the entire cost of an
instrumentation site is one `get_sink() is None` check.""",
}


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    line = doc.strip().splitlines()[0] if doc.strip() else ""
    return line


def iter_modules():
    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            yield info.name, importlib.import_module(info.name)
        except Exception as exc:  # pragma: no cover - diagnostics only
            print(f"skipping {info.name}: {exc}")


def main() -> None:
    lines = [
        "# API index",
        "",
        "Auto-generated by `python scripts/gen_api_index.py`; summaries are",
        "each symbol's first docstring line — see the source for full docs.",
        "",
    ]
    for name, module in sorted(iter_modules()):
        exports = getattr(module, "__all__", None)
        if not exports:
            continue
        lines.append(f"## `{name}`")
        mod_line = first_line(module)
        if mod_line:
            lines.append("")
            lines.append(mod_line)
        lines.append("")
        lines.append("| symbol | kind | summary |")
        lines.append("|---|---|---|")
        for sym in exports:
            obj = getattr(module, sym, None)
            if obj is None:
                kind, summary = "?", ""
            elif inspect.isclass(obj):
                kind, summary = "class", first_line(obj)
            elif inspect.isfunction(obj):
                kind, summary = "function", first_line(obj)
            elif isinstance(obj, (int, float, str)):
                # A plain value's docstring is its type's; show the value.
                kind = "constant"
                summary = f"= `{obj!r}`" if not isinstance(obj, str) else f"= `{obj}`"
            else:
                kind, summary = type(obj).__name__, first_line(obj)
            summary = summary.replace("|", "\\|")
            lines.append(f"| `{sym}` | {kind} | {summary} |")
        if name in NOTES:
            lines.append("")
            lines.append(NOTES[name])
        lines.append("")
    OUT.write_text("\n".join(lines))
    print(f"wrote {OUT} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
