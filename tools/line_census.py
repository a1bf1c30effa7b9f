"""Line and option census of ``src/repro``: charge every executable line
and every option to the product surface that uses it.

Quanto charges each joule to the activity that caused it; this tool
does the same for the code.  It has two halves.

**Line census** (dynamic).  Every product surface runs in this process
under a ``sys.settrace``/``threading.settrace`` line tracer, each one
charged separately:

* each experiment in ``EXPERIMENT_IDS`` at seed 0, rendered;
* the CLI verbs through ``repro.cli.main``: ``list``, ``experiment``,
  ``sweep`` (cold, a cached rerun, one ``ext_collection`` grid),
  ``campaign plan``/``worker``/``status``/``run``/``merge --strict``,
  ``blink`` (with and without ``--dump``) and ``validate``;
* serve: ``tools/serve_smoke.py``'s ``main()``, and one durable leg on
  an in-process ``IngestServer`` (small checkpoint cadence, every query
  verb, then a restore);
* each ``examples/*.py`` ``main``;
* ``benchmarks/bench_engine.py``'s rows at ``SAMPLES = 1``.

Then the tier-1 suite runs in-process under the same tracer.  A module's
executable lines come from the compiler's line tables (``co_lines``).
Per module the report gives the executable lines, how many the surfaces
reach, the lines only tests reach (grouped by function) and the lines
nothing in-process reaches: bodies that run only in a subprocess (the
``repro serve`` loop, campaign workers, pool workers) and error
branches.

**Option census** (static, AST): every defaulted parameter of a public
function, method or class, the fields of the four config dataclasses,
every CLI flag and every ``REPRO_*`` literal, each marked as set by
product code (``src/``, ``tools/``, ``examples/``, ``benchmarks/``,
``ledgerbench/``, CI), by tests only, or by nothing.  The call scan
matches calls by name, so its counts are approximate.

Names the benchmark holds (imported by ``ledgerbench/*.py`` or wrapped
by its tracer tables) are listed and never reported as retirement
candidates.

Run: ``PYTHONPATH=src python tools/line_census.py`` (no flags; a few
minutes, most of it the traced test suite).  It prints its report and
writes no file outside a temporary directory.
"""

from __future__ import annotations

import ast
import asyncio
import contextlib
import importlib.util
import io
import os
import re
import sys
import tempfile
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PRODUCT_DIRS = ("src", "tools", "examples", "benchmarks", "ledgerbench")
CI_FILES = (ROOT / ".github" / "workflows" / "ci.yml",)
TESTS = ROOT / "tests"

#: The dataclasses whose every field is an option.
CONFIG_CLASSES = ("NodeConfig", "PlatformConfig", "CampaignManifest")

_ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


# -- executable lines ---------------------------------------------------------


def line_table(path: Path) -> dict[int, str]:
    """Each executable line of the module at ``path``, mapped to the
    qualified name of the code that holds it (``<module>`` for
    module-level code).  A line that both a code object and the code
    enclosing it hold, such as a ``def`` or decorator line, belongs to
    the enclosing code: that is where it runs."""
    owner = {}

    def walk(code: types.CodeType, enclosing: set[int]) -> None:
        lines = {line for _start, _end, line in code.co_lines()
                 if line is not None}
        for line in lines - enclosing:
            owner[line] = code.co_qualname
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, lines)

    walk(compile(path.read_text("utf-8"), str(path), "exec"), set())
    return owner


def src_modules() -> list[str]:
    """Every module under ``src/repro``, as a path relative to it."""
    return sorted(str(path.relative_to(SRC))
                  for path in SRC.rglob("*.py"))


# -- the tracer ---------------------------------------------------------------


class LineTracer:
    """Records the ``src/repro`` lines executed while a surface is
    charged: ``reached[surface][module]`` is a set of line numbers."""

    def __init__(self) -> None:
        self.reached: dict[str, dict[str, set[int]]] = defaultdict(
            lambda: defaultdict(set))
        self._modules: dict[str, Optional[str]] = {}
        self._current: Optional[dict[str, set[int]]] = None
        self._prefix = str(SRC) + os.sep

    def _module_of(self, filename: str) -> Optional[str]:
        try:
            return self._modules[filename]
        except KeyError:
            path = os.path.realpath(filename)
            module = (path[len(self._prefix):]
                      if path.startswith(self._prefix)
                      and path.endswith(".py") else None)
            self._modules[filename] = module
            return module

    def _call(self, frame, _event, _arg):
        current = self._current
        if current is None:
            return None
        module = self._module_of(frame.f_code.co_filename)
        if module is None:
            return None
        lines = current[module]
        lines.add(frame.f_lineno)

        def local(frame, event, _arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    @contextlib.contextmanager
    def charge(self, surface: str):
        """Trace this thread, and every thread started meanwhile, into
        ``reached[surface]``; the previous trace functions come back on
        exit, so a tracer can run inside another one."""
        before = self._current
        previous = sys.gettrace(), threading.gettrace()
        self._current = self.reached[surface]
        sys.settrace(self._call)
        threading.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(previous[0])
            threading.settrace(previous[1])
            self._current = before


# -- the surfaces -------------------------------------------------------------


def _load(path: Path, name: str):
    """Import a script outside the package by path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _cli(*argv: str) -> Callable[[], None]:
    def run() -> None:
        from repro.cli import main

        code = main(list(argv))
        if code not in (0, None):
            raise RuntimeError(f"repro {' '.join(argv)} exited {code}")
    return run


def _durable_leg(root: str) -> None:
    """One journaled stream on an in-process server with a small
    checkpoint cadence, every query verb, then a restore of the state
    directory."""
    from repro.experiments.common import run_blink
    from repro.serve import IngestServer, query, stream_node
    from repro.units import seconds

    node, _app, _sim = run_blink(seed=5, duration_ns=seconds(8), node_id=9)
    state = os.path.join(root, "state")
    sock = os.path.join(root, "durable.sock")

    async def serve() -> None:
        server = IngestServer(state_dir=state, checkpoint_bytes=4096)
        await server.start_unix(sock)
        try:
            await stream_node(sock, node, stride_ns=int(seconds(1)),
                              chunk_size=1021)
            for payload in ({"cmd": "nodes"}, {"cmd": "stats"},
                            {"cmd": "breakdown", "node_id": 9},
                            {"cmd": "windows", "node_id": 9, "last": 4}):
                if not (await query(sock, payload)).get("ok"):
                    raise RuntimeError(f"query {payload} failed")
        finally:
            await server.close()
        restored = IngestServer(state_dir=state)
        try:
            if restored.restored != 1:
                raise RuntimeError("the durable session did not restore")
            restored.sessions[9].breakdown()
        finally:
            await restored.close()

    asyncio.run(serve())


def _example(path: Path) -> Callable[[], None]:
    def run() -> None:
        argv = sys.argv
        sys.argv = [str(path)]
        try:
            _load(path, f"census_example_{path.stem}").main()
        finally:
            sys.argv = argv
    return run


def _bench_rows() -> None:
    bench = _load(ROOT / "benchmarks" / "bench_engine.py",
                  "census_bench_engine")
    bench.SAMPLES = 1
    bench.run_benchmarks()


def surfaces(scratch: str) -> list[tuple[str, Callable[[], None]]]:
    """Every product surface, as (name, thunk), in run order."""
    from repro.experiments import EXPERIMENT_IDS, run_experiment

    table = [(f"experiment {exp_id}",
              lambda exp_id=exp_id: run_experiment(exp_id, seed=0).render())
             for exp_id in EXPERIMENT_IDS]
    cache = os.path.join(scratch, "sweep-cache")
    manifest = os.path.join(scratch, "campaign", "camp.json")
    short = ("--set", "duration_ns=4000000000")
    table += [
        ("cli list", _cli("list")),
        ("cli experiment", _cli("experiment", "table3", *short)),
        ("cli sweep", _cli("sweep", "table3", "--seeds", "3", *short,
                           "--set", "device_variation=0.02",
                           "--cache-dir", cache)),
        ("cli sweep cached", _cli("sweep", "table3", "--seeds", "3", *short,
                                  "--set", "device_variation=0.02",
                                  "--cache-dir", cache)),
        ("cli sweep ext_collection",
         _cli("sweep", "ext_collection", "--seeds", "1", "--set", "nodes=3",
              "--set", "duration_ns=3000000000", "--cache-dir", cache)),
        ("cli campaign plan",
         _cli("campaign", "plan", manifest, "table3", "--seeds", "2",
              *short, "--shards", "2")),
        ("cli campaign worker",
         _cli("campaign", "worker", manifest, "--shard", "0/2")),
        ("cli campaign status", _cli("campaign", "status", manifest)),
        ("cli campaign run", _cli("campaign", "run", manifest)),
        ("cli campaign merge",
         _cli("campaign", "merge", manifest, "--strict")),
        ("cli blink", _cli("blink", "--seconds", "8")),
        ("cli blink --dump", _cli("blink", "--seconds", "8", "--dump")),
        ("cli validate", _cli("validate")),
        ("serve smoke", lambda: asyncio.run(
            _load(ROOT / "tools" / "serve_smoke.py",
                  "census_serve_smoke").main())),
        ("serve durable", lambda: _durable_leg(scratch)),
    ]
    table += [(f"example {path.stem}", _example(path))
              for path in sorted((ROOT / "examples").glob("*.py"))]
    table.append(("bench_engine rows", _bench_rows))
    return table


def run_tests() -> int:
    """The tier-1 suite in this process; returns pytest's exit code."""
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS)])


# -- names the benchmark holds ------------------------------------------------


def held_names() -> set[str]:
    """Dotted names ``ledgerbench/`` imports from ``repro`` or wraps by
    name (its tracer tables)."""
    held = set()
    for path in sorted((ROOT / "ledgerbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                held.update(f"{node.module}.{alias.name}"
                            for alias in node.names)
    sys.path.insert(0, str(ROOT / "ledgerbench"))
    try:
        sweeps = _load(ROOT / "ledgerbench" / "sweeps.py", "census_sweeps")
        server = _load(ROOT / "ledgerbench" / "server.py", "census_server")
        for table in (sweeps.wrap_table(sweeps.Tracer()),
                      server.ingest_table(server.Tracer())):
            for module, owner, name, _span, _options in table:
                held.add(".".join(filter(None, (module, owner, name))))
    finally:
        sys.path.remove(str(ROOT / "ledgerbench"))
    return held


# -- the option census --------------------------------------------------------


@dataclass(frozen=True)
class Option:
    """One settable value: ``callable`` is the name a call site uses
    (the class for a constructor parameter or a config field)."""

    kind: str  # "param", "field", "flag" or "env"
    module: str
    callable: str
    name: str
    position: Optional[int] = None  # positional index, if passable so

    def label(self) -> str:
        if self.kind in ("flag", "env"):
            return f"{self.callable} {self.name}".strip()
        return f"{self.callable}({self.name}=)"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _defaulted(func: ast.FunctionDef, skip_first: bool):
    """(name, positional index or None) of each defaulted parameter."""
    positional = func.args.posonlyargs + func.args.args
    if skip_first:
        positional = positional[1:]
    first_default = len(positional) - len(func.args.defaults)
    for index, arg in enumerate(positional):
        if index >= first_default:
            yield arg.arg, index
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _class_options(module: str, node: ast.ClassDef) -> Iterator[Option]:
    config = node.name in CONFIG_CLASSES
    if _is_dataclass(node):
        for index, stmt in enumerate(
                s for s in node.body if isinstance(s, ast.AnnAssign)):
            if isinstance(stmt.target, ast.Name) and (
                    config or stmt.value is not None):
                yield Option("field", module, node.name, stmt.target.id,
                             index)
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        static = any(getattr(d, "id", "") == "staticmethod"
                     for d in stmt.decorator_list)
        if stmt.name == "__init__":
            name = node.name
        elif stmt.name.startswith("_"):
            continue
        else:
            name = stmt.name
        for param, index in _defaulted(stmt, skip_first=not static):
            yield Option("param", module, name, param, index)


def _src_options() -> list[Option]:
    options = []
    for module in src_modules():
        tree = ast.parse((SRC / module).read_text("utf-8"))
        for node in tree.body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.ClassDef):
                options.extend(_class_options(module, node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                options.extend(
                    Option("param", module, node.name, param, index)
                    for param, index in _defaulted(node, skip_first=False))
    return options


def _cli_flags() -> list[Option]:
    tree = ast.parse((SRC / "cli.py").read_text("utf-8"))
    commands = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "attr", "") == "add_parser"
                and isinstance(node.targets[0], ast.Name)):
            first = node.value.args[0] if node.value.args else None
            commands[node.targets[0].id] = (
                first.value if isinstance(first, ast.Constant) else "*")
    flags = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", "") == "add_argument"
                and node.args and isinstance(node.args[0], ast.Constant)
                and str(node.args[0].value).startswith("--")):
            owner = getattr(node.func.value, "id", "")
            flags.append(Option("flag", "cli.py", commands.get(owner, owner),
                                node.args[0].value))
    return flags


def _env_vars() -> tuple[list[Option], dict[str, set[str]]]:
    """Every ``REPRO_*`` string literal in src, and the module constants
    bound to each."""
    found, aliases = {}, defaultdict(set)
    for module in src_modules():
        tree = ast.parse((SRC / module).read_text("utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and _ENV_NAME.fullmatch(node.value)):
                found.setdefault(node.value, module)
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                    and _ENV_NAME.fullmatch(node.value.value)):
                aliases[node.value.value].update(
                    t.id for t in node.targets if isinstance(t, ast.Name))
    return ([Option("env", module, "", name)
             for name, module in sorted(found.items())], aliases)


def _python_files(origin: str) -> list[Path]:
    if origin == "tests":
        return sorted(TESTS.glob("*.py"))
    return sorted(path for top in PRODUCT_DIRS
                  for path in (ROOT / top).rglob("*.py"))


def _forwarders() -> set[str]:
    """Names of the callables (anywhere in product or tests) whose
    signature takes ``**kwargs``."""
    return {node.name
            for path in _python_files("product") + _python_files("tests")
            for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.args.kwarg is not None}


def _call_sites(paths, forwarders: set[str]) -> set[tuple[str, str]]:
    """(called name, keyword) and (called name, "#i") for each keyword
    and positional argument index any call in ``paths`` passes.
    ``replace(...)`` keywords count for every dataclass, and a keyword
    passed to one of ``forwarders`` is recorded as ("**", keyword): it
    may reach any option of that name."""
    sites = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if name is None:
                continue
            sites.update((name, kw.arg) for kw in node.keywords if kw.arg)
            if name in forwarders:
                sites.update(("**", kw.arg) for kw in node.keywords
                             if kw.arg)
            sites.update((name, f"#{index}")
                         for index, arg in enumerate(node.args)
                         if not isinstance(arg, ast.Starred))
    return sites


def _text(paths) -> str:
    return "\n".join(path.read_text("utf-8") for path in paths)


def _env_set_in_src(name: str, aliases: set[str]) -> bool:
    """True when src writes the variable (an ``environ``/``env``
    subscript store, a dict key, or ``setdefault``/``putenv``)."""
    spellings = {name} | aliases

    def names(node) -> bool:
        return (isinstance(node, ast.Constant) and node.value in spellings
                or isinstance(node, ast.Name) and node.id in spellings)

    for module in src_modules():
        for node in ast.walk(ast.parse((SRC / module).read_text("utf-8"))):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Store) and names(node.slice)):
                return True
            if isinstance(node, ast.Dict) and any(
                    key is not None and names(key) for key in node.keys):
                return True
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", "") in (
                        "setdefault", "putenv", "setenv")
                    and node.args and names(node.args[0])):
                return True
    return False


def option_census() -> list[tuple[Option, str]]:
    """Every option with who sets it: ``product``, ``tests`` (only) or
    ``nothing``."""
    forwarders = _forwarders()
    sites = {origin: _call_sites(_python_files(origin), forwarders)
             for origin in ("product", "tests")}
    product = _python_files("product")
    ci = [path for path in CI_FILES if path.is_file()]
    texts = {
        # cli.py defines the flags; its own help texts set nothing.
        "flag": _text([p for p in product if p != SRC / "cli.py"] + ci),
        # A name src only reads is not set by naming it there.
        "env": _text([p for p in product if SRC not in p.parents] + ci),
        "tests": _text(_python_files("tests")),
    }

    def passed(option: Option, origin: str) -> bool:
        found = sites[origin]
        if ((option.callable, option.name) in found
                or ("**", option.name) in found):
            return True
        if option.kind == "field" and ("replace", option.name) in found:
            return True
        return (option.position is not None
                and (option.callable, f"#{option.position}") in found)

    def mentioned(spellings, text: str) -> bool:
        return any(re.search(rf"(?<![\w-]){re.escape(s)}(?![\w-])", text)
                   for s in spellings)

    envs, aliases = _env_vars()
    rows = []
    for option in _src_options() + _cli_flags() + envs:
        if option.kind in ("param", "field"):
            product = passed(option, "product")
            tests = passed(option, "tests")
        else:
            spellings = {option.name} | aliases.get(option.name, set())
            product = mentioned(spellings, texts[option.kind]) or (
                option.kind == "env"
                and _env_set_in_src(option.name, aliases[option.name]))
            tests = mentioned(spellings, texts["tests"])
        rows.append((option, "product" if product
                     else "tests" if tests else "nothing"))
    return rows


# -- the report ---------------------------------------------------------------


def _ranges(lines) -> str:
    lines = sorted(lines)
    spans, start, prev = [], None, None
    for line in lines:
        if start is None:
            start = prev = line
        elif line == prev + 1:
            prev = line
        else:
            spans.append((start, prev))
            start = prev = line
    if start is not None:
        spans.append((start, prev))
    return ",".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def _by_function(table: dict[int, str], lines) -> dict[str, list[int]]:
    grouped = defaultdict(list)
    for line in sorted(lines):
        grouped[table[line]].append(line)
    return grouped


def _dotted(module: str, qualname: str) -> str:
    stem = module[:-3].replace(os.sep, ".")
    if stem.endswith(".__init__"):
        stem = stem[:-len(".__init__")]
    return f"repro.{stem}.{qualname}"


def report(tracer: LineTracer, held: set[str], options) -> None:
    surface_lines = defaultdict(set)
    for surface, modules in tracer.reached.items():
        if surface == "tests":
            continue
        for module, lines in modules.items():
            surface_lines[module] |= lines
    test_lines = tracer.reached.get("tests", {})

    totals = [0, 0, 0, 0]
    rows, only_tests, neither = [], {}, {}
    for module in src_modules():
        table = line_table(SRC / module)
        executable = set(table)
        surfaced = surface_lines.get(module, set()) & executable
        tested = (test_lines.get(module, set()) & executable) - surfaced
        dead = executable - surfaced - tested
        rows.append((module, len(executable), len(surfaced), len(tested),
                     len(dead)))
        for index, count in enumerate(rows[-1][1:]):
            totals[index] += count
        if tested:
            only_tests[module] = (table, tested, surfaced)
        if dead:
            neither[module] = (table, dead, surfaced)

    print("== line census: src/repro, executable lines from co_lines ==")
    print(f"{'module':<32} {'exec':>6} {'surfaces':>9} {'only tests':>11} "
          f"{'neither':>8}")
    for module, executable, surfaced, tested, dead in rows:
        print(f"{module:<32} {executable:>6} {surfaced:>9} {tested:>11} "
              f"{dead:>8}")
    executable, surfaced, tested, dead = totals
    print(f"{'total':<32} {executable:>6} {surfaced:>9} {tested:>11} "
          f"{dead:>8}")
    print(f"surfaces reach {surfaced / executable:.1%} of executable lines; "
          f"tests reach {tested} more; {dead} are reached by neither")

    print()
    print("== lines reached per surface ==")
    for surface, modules in tracer.reached.items():
        print(f"{surface:<40} {sum(len(v) for v in modules.values()):>6}")

    for title, groups in (
            ("lines only tests reach, by function", only_tests),
            ("lines nothing in-process reaches, by function", neither)):
        print()
        print(f"== {title} ([whole]: no surface runs any of its lines; "
              f"[held]: the benchmark holds the name) ==")
        for module, (table, lines, surfaced) in groups.items():
            print(module)
            owned = _by_function(table, table)
            for name, group in _by_function(table, lines).items():
                marks = []
                if not set(owned[name]) & surfaced:
                    marks.append("[whole]")
                if _dotted(module, name) in held:
                    marks.append("[held]")
                print(f"  {name:<48} {len(group):>4}  L{_ranges(group)}"
                      + (" " + " ".join(marks) if marks else ""))

    print()
    print("== option census (product: src/tools/examples/benchmarks/"
          "ledgerbench/CI) ==")
    counts = defaultdict(int)
    for option, who in options:
        counts[who] += 1
        print(f"{who:<8} {option.kind:<6} {option.module:<28} "
              f"{option.label()}")
    print(f"{len(options)} options: " + ", ".join(
        f"{counts[who]} set by {who}"
        for who in ("product", "tests", "nothing")))
    print("retirement candidates (set by no product code): "
          + str(counts["tests"] + counts["nothing"]))

    print()
    print(f"== names the benchmark holds ({len(held)}) ==")
    for name in sorted(held):
        print(f"  {name}")


def main() -> int:
    started = time.perf_counter()
    tracer = LineTracer()
    with tempfile.TemporaryDirectory(prefix="line-census-") as scratch:
        # Tracing starts before the first product import, so module
        # bodies are charged to the surface that first imports them.
        with tracer.charge("import repro"):
            table = surfaces(scratch)
        for name, thunk in table:
            began = time.perf_counter()
            with tracer.charge(name), \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                thunk()
            print(f"surface {name}: {time.perf_counter() - began:.1f} s",
                  file=sys.stderr, flush=True)
    began = time.perf_counter()
    pytest_out = io.StringIO()
    with tracer.charge("tests"), contextlib.redirect_stdout(pytest_out):
        code = run_tests()
    summary = (pytest_out.getvalue().strip().splitlines() or ["?"])[-1]
    print(f"tier-1 under the tracer: {summary} (exit {code}), "
          f"{time.perf_counter() - began:.1f} s", file=sys.stderr)
    report(tracer, held_names(), option_census())
    print(f"\ntier-1 under the tracer: {summary}")
    print(f"census took {time.perf_counter() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
