"""What each module imports: one home per wire constant, and REE code
that imports no trusted module."""

import ast
import json
from pathlib import Path

import pytest

import teefab
from test_wallet import _run_fresh

_SRC = Path(teefab.__file__).resolve().parent
_REPO = _SRC.parents[1]

# Each wire constant and the one module that assigns it; both sides of
# the mailbox import it from there.
_HOMES = {
    **{name: "wallet/__init__.py" for name in (
        "CMD_CHECK_EXISTS", "CMD_GENERATE", "CMD_RESTORE", "CMD_DELETE",
        "CMD_SIGN", "CMD_GET_ADDRESS", "PIN_MAX", "HARDENED_BIT")},
    **{name: "protocol.py" for name in (
        "TA_KIND_INCREMENT", "TA_KIND_SHMEM16", "TA_KIND_ECHO",
        "TA_KIND_PROBE", "TA_KIND_WALLET")},
}

# Code on the REE side of the mailbox, and the trusted modules it must
# not import, each with everything under it.
_REE_FILES = (
    "src/teefab/client_api.py", "src/teefab/bench.py", "src/teefab/cli.py",
    "src/teefab/wallet/__init__.py", "src/teefab/wallet/client.py",
    *sorted(path.relative_to(_REPO).as_posix()
            for path in (_REPO / "demos").glob("*.py")))
_TRUSTED = ("teefab.enclave", "teefab.internal_api", "teefab.wallet.ta",
            "teefab.wallet.hd", "teefab.wallet.mnemonic")


def _module_level(nodes):
    """The nodes under `nodes` that run at import: no function or class
    body."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        yield node
        yield from _module_level(ast.iter_child_nodes(node))


def _assigned(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.id for node in _module_level(tree.body)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]


def _imported(path, package):
    """Every module a file imports, anywhere in it, by absolute name; a
    `from X import name` counts as an import of X and of X.name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parent = ".".join(parts[:len(parts) - node.level + 1])
                base = f"{parent}.{base}" if base else parent
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_each_wire_constant_is_assigned_once_in_its_home():
    found = {name: [] for name in _HOMES}
    for path in sorted(_SRC.rglob("*.py")):
        for name in _assigned(path):
            if name in found:
                found[name].append(path.relative_to(_SRC).as_posix())
    assert found == {name: [home] for name, home in _HOMES.items()}


def test_only_the_core_registers_ta_kinds():
    callers = {
        path.relative_to(_SRC).as_posix() for path in _SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "register_ta_kind"}
    assert callers == {"enclave.py"}


@pytest.mark.parametrize("name", _REE_FILES)
def test_ree_code_imports_no_trusted_module(name):
    parts = Path(name).parent.parts
    package = ".".join(parts[1:]) if parts[0] == "src" else ""
    trusted = sorted({module for module in _imported(_REPO / name, package)
                      if any(module == root or module.startswith(root + ".")
                             for root in _TRUSTED)})
    assert trusted == []


_LOADED_SCRIPT = """
import json, sys
before = set(sys.modules)
import {module}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("module, absent", [
    ("teefab.wallet.client",
     ["teefab.wallet.hd", "teefab.wallet.mnemonic", "teefab.wallet.ta"]),
    ("teefab.cli", ["statistics", "teefab.bench"]),
], ids=["wallet_client", "cli"])
def test_a_fresh_import_leaves_out(module, absent):
    """The wallet client loads none of the wallet TA's modules, and the
    command line loads the bench only for `teefab bench`."""
    added = json.loads(_run_fresh(_LOADED_SCRIPT.format(module=module)))
    assert module in added
    assert [name for name in absent if name in added] == []
