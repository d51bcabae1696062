"""Run one ``bellpersist`` command with spans around each module's public
functions, leaving ``src/`` untouched.

Usage: python perfbench/trace_launch.py SPANS_FILE COMMAND_ID -- ARGV...

The package is imported before any wrapper is installed, so import cost
stays out of every span.  Each function in ``layers.TRACED`` is replaced
on its module and on every module that holds a ``from ... import`` copy
of it; methods are replaced on their class.  The command then runs
through ``bellpersist.cli.main`` in this process.  Spans stay in memory
and are written to SPANS_FILE as JSON when the command ends; stdout
carries only the command's own output.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import layers


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        arg = layers.WORK_ARGUMENT.get(name)
        signature = inspect.signature(fn) if arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            err = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                err = 1
                raise
            finally:
                end = clock()
                stack.pop()
                work = signature.bind(*args, **kwargs).arguments.get(arg, 0) if signature else 0
                spans[span] = (idx, start, end, parent, err, work)

        return traced

    def install(self) -> None:
        package = [m for n, m in sys.modules.items() if n == "bellpersist" or n.startswith("bellpersist.")]
        for module_name, qualnames in layers.TRACED.items():
            module = sys.modules[f"bellpersist.{module_name}"]
            for qualname in qualnames:
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    raw = inspect.getattr_static(owner, attr)
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(f"{module_name}.{qualname}", raw.__func__))
                    else:
                        wrapped = self.wrap(f"{module_name}.{qualname}", raw)
                    setattr(owner, attr, wrapped)
                    continue
                fn = getattr(module, attr)
                wrapped = self.wrap(f"{module_name}.{qualname}", fn)
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)

    def write(self, path: str, command_id: int) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"command": command_id, "names": self.names, "spans": self.spans}, handle)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    spans_path, command_id, cli_argv = argv[0], int(argv[1]), argv[3:]
    import bellpersist.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.write(spans_path, command_id)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
