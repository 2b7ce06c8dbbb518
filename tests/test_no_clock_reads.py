"""Nothing under ``src/repro`` reads a clock, draws OS entropy or shares the
module-level ``random`` state: time is the virtual clock, and every random
choice comes from a ``random.Random(seed)`` passed in (DESIGN.md)."""

import ast
import pathlib

import repro

_CLOCKS = ("time", "monotonic", "perf_counter", "process_time")
BANNED = {("time", name + ns) for name in _CLOCKS for ns in ("", "_ns")} | {
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"), ("date", "today"),
    ("os", "urandom"), ("os", "getrandom"), ("uuid", "uuid1"), ("uuid", "uuid4"),
}  # fmt: skip


def _banned(module, name):
    if module == "random":
        return name != "Random"
    return module == "secrets" or (module, name) in BANNED


def banned_uses(source):
    """``(line, "module.name")`` for each banned name the source reaches."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            base = node.value
            module = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            if module == "random" and not isinstance(base, ast.Name):
                continue  # ``self.random.x`` is not the module
            if module is not None and _banned(module, node.attr):
                yield node.lineno, f"{module}.{node.attr}"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if _banned(node.module, alias.name):
                    yield node.lineno, f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "secrets":
                    yield node.lineno, "secrets"


def test_no_module_reads_a_clock_or_shared_entropy():
    package = pathlib.Path(repro.__file__).parent
    found = [
        f"{path.relative_to(package)}:{line}: {name}"
        for path in sorted(package.rglob("*.py"))
        for line, name in banned_uses(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_scan_sees_each_way_in():
    for source in (
        "pick = random.random() * total",
        "from random import shuffle",
        "import secrets",
        "t = time.perf_counter_ns()",
        "from time import process_time",
        "stamp = datetime.datetime.now()",
        "from os import urandom",
        "key = uuid.uuid4()",
        "token = secrets.token_hex()",
    ):
        assert list(banned_uses(source)), source
    for source in ("rng = random.Random(seed)", "x = self.random.random()", "time.sleep(0)"):
        assert not list(banned_uses(source)), source
