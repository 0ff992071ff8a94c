"""repro-lint: AST-based enforcement of the repo's architecture invariants.

The ROADMAP distils four hard invariants out of PRs 1-7 (score through the
evaluator, execute through work units + checkpoint stores, byte-level
determinism, new axes as spec fields).  Tests catch violations of behaviour;
nothing catches violations of *structure* — a stray ``hash()`` or wall-clock
read compiles, passes the suite on one machine, and silently breaks
byte-identity on the next.  This package makes the invariants machine-checked:

======  ====================================================================
RL001   determinism: no ``hash()`` / wall-clock / unseeded RNG in library
        code (``utils/timing.py`` excepted)
RL002   scoring goes through ``problem.evaluator``; no ``evaluate_split``
        calls inside loop bodies outside ``core/``
RL003   work units (``*Unit``/``*Chunk`` classes) are slotted, define
        ``as_dict``/``from_dict`` and carry no unpicklable members
RL004   checkpoint hygiene: append-mode JSONL writes in ``experiments/``
        only inside ``JsonlCheckpointStore`` subclasses
RL006   no bare ``except:`` / ``except BaseException`` that can swallow
        ``KeyboardInterrupt``
RL007   seeds derive only via ``utils.rng.stable_text_digest`` /
        ``derive_seed``, never ad-hoc hashes
RL008   engine hot-path purity: no I/O or wall-clock under
        ``simulation/engine.py`` dispatch
======  ====================================================================

The per-file rules are one AST hop deep by design.  The **project-rule
family** (whole-tree mode: any run whose paths include a directory) closes
the transitive gaps over a deterministic call graph (``project.py``), with
findings that print the offending call chain
(``engine.run → _drain → logger.info``):

======  ====================================================================
RL101   transitive engine purity: no call path from ``simulation/engine.py``
        functions to I/O / logging / wall-clock anywhere in the tree
RL102   transitive evaluator discipline: no loop-borne call chain outside
        ``core/`` reaching ``evaluate_split``
RL104   transitive pickle safety: ``*Unit``/``*Chunk`` field types bottom
        out in picklable primitives/dataclasses (no locks, open files,
        generators or lambda-valued attributes through any alias)
RL105   dead spec axes: every ``*Spec`` dataclass field is read by some
        code path outside the spec itself
======  ====================================================================

A finding on one line can be suppressed with a justified pragma::

    risky_line()  # repro-lint: disable=RL001 -- <why this one is safe>

A pragma anywhere on a multi-line statement covers the whole logical line.
The justification is mandatory; a pragma without one is itself reported
(``RL000``) and suppresses nothing.  Run the checker with
``repro-cloud lint [paths] [--rule ID] [--output FILE]`` — text on stdout,
the JSON report in ``FILE``; the test suite lints ``src/`` as a directory
and fails on any finding, so the repo itself stays clean.
"""

from .base import Finding, ModuleContext, ProjectRule, Rule
from .pragmas import PRAGMA_RULE_ID
from .project import ModuleSummary, ProjectContext, summarize_module
from .registry import available_rules, make_rule_sets, make_rules, rule_ids
from .reporters import render_json, render_text
from .runner import LintReport, iter_python_files, lint_paths, lint_source, lint_sources

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "ProjectRule",
    "PRAGMA_RULE_ID",
    "ModuleSummary",
    "ProjectContext",
    "summarize_module",
    "available_rules",
    "make_rules",
    "make_rule_sets",
    "rule_ids",
    "render_json",
    "render_text",
    "LintReport",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "lint_sources",
]
