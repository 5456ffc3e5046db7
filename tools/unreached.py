"""Print every ``sftlab`` function that no built-in run calls.

    python3 tools/unreached.py [--seed 7]

Run it from the repository root.  In one process, with a ``sys.settrace``
hook that records only call events, it runs ``configs/all.json`` and the
config of each benchmark workload (``perfbench/workloads.py``) through
``sftlab run`` at the given seed, writing into a temporary directory that
is removed afterwards.  It then lists each function and method defined in
``src/sftlab`` whose code never started, as ``module.qualname`` with its
line count (``def`` or first decorator through the last line of its body),
followed by the total.  A function nested in one listed is not listed
again: its lines are the outer one's, so each source line counts once.  A
function listed here is reached only by the tests or by callers outside the
package, so no built-in run exercises it.  A generator counts as called
once it is first resumed.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sftlab"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, config  # noqa: E402


def _functions(path: Path) -> dict[int, tuple[str, int]]:
    """{first line: (qualname, last line)} of every function in a module;
    the first line is the code object's, the first decorator's if any."""
    out: dict[int, tuple[str, int]] = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] +
                            [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out[first] = (name, child.end_lineno)
                walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(), str(path)), "")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    prefix = str(PACKAGE) + "/"
    called: set[tuple[str, int]] = set()

    def on_call(frame, event, _arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            called.add((code.co_filename, code.co_firstlineno))
        # no local trace function: only call events are recorded

    configs = {"all": json.loads((ROOT / "configs" / "all.json").read_text())}
    configs.update((name, config(name, args.seed)) for name in WORKLOADS)
    sys.settrace(on_call)  # from the import on: decorators run there
    try:
        from sftlab.cli import main as sftlab_main
        with tempfile.TemporaryDirectory() as tmp:
            for name, cfg in configs.items():
                cfg_path = Path(tmp) / f"{name}.json"
                cfg_path.write_text(json.dumps(cfg))
                log = io.StringIO()  # the run's report, shown on failure
                with contextlib.redirect_stdout(log):
                    status = sftlab_main(["run", str(cfg_path), "--out",
                                          str(Path(tmp) / name),
                                          "--seed", str(args.seed)])
                if status:
                    raise SystemExit(f"sftlab run of {name} exited {status}:"
                                     f"\n{log.getvalue()}")
    finally:
        sys.settrace(None)
    total = count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        listed_to = 0  # the last line of the function listed last
        for first, (name, last) in sorted(_functions(path).items()):
            if (str(path), first) not in called and first > listed_to:
                lines = last - first + 1
                print(f"{path.stem}.{name}  {lines} lines")
                total, count, listed_to = total + lines, count + 1, last
    print(f"{count} functions, {total} lines, unreached at seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
