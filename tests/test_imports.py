"""The exact core runs without numpy: importing the package and the command
line, simplifying and evaluating states load it nowhere; the first matrix
(a Gram check) does.  Nor do those commands load the check table
(``weylccr.verify``) or the process pool that verify runs its rows on.
Each test starts a fresh interpreter, because this one has numpy loaded
already.  And the integer layout of ``ExactScalar`` is read by ``scalars``
alone."""

import ast
import builtins
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_symbolic_commands_do_not_load_numpy(tmp_path):
    state = tmp_path / "fock.json"
    state.write_text(json.dumps({"family": "fock"}))
    script = textwrap.dedent(f"""
        import contextlib, io, runpy, sys
        import weylccr, weylccr.cli
        assert "numpy" not in sys.modules, "import"

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert weylccr.cli.main(["simplify", "--elem", "v(1/2)*u(1/2)"]) == 0
            assert weylccr.cli.main(["eval", "--state", {str(state)!r},
                                     "--elem", "u(1)*v(1)"]) == 0
            sys.argv = ["weylccr", "eval", "--state", {str(state)!r}, "--elem", "v(0)"]
            try:
                runpy.run_module("weylccr", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                assert exc.code == 0, exc.code
        assert "numpy" not in sys.modules, "commands"
        assert "weylccr.verify" not in sys.modules, "check table"
        assert "multiprocessing" not in sys.modules, "pool"
        assert "concurrent.futures" not in sys.modules, "pool"
        lines = out.getvalue().splitlines()
        assert "u(1/2)v(1/2)" in lines[0] and lines[2] == "1+0i", lines

        from weylccr import Fock, Frame, Monomial, gram_psd_check
        from weylccr.lattice import vector
        probes = [Monomial(vector([a]), vector([b])) for a in (0, 1) for b in (0, 1)]
        rep = gram_psd_check(Fock(), Frame.standard(1), probes)
        assert "numpy" in sys.modules, "gram"
        assert rep.passed and rep.min_eigenvalue > 0 and rep.hermitian_residual < 1e-15, rep
        print("ok")
    """)
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_module_entry_point_runs_the_command_line():
    proc = run_python("-m", "weylccr", "simplify", "--elem", "v(1/2)*u(1/2)")
    assert proc.returncode == 0, proc.stderr
    assert "u(1/2)v(1/2)" in proc.stdout
    proc = run_python("-m", "weylccr", "verify", "--suite", "gns", "--tol", "nan")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--tol" in proc.stderr


def test_only_scalars_reads_the_fields_of_an_exact_scalar():
    """No other module reads ``_p``, ``_c`` or ``_q`` or imports ``_Q1``; they
    use the integer views ``scalars`` exports (``rational_key``,
    ``integer_vector``, ``PhaseAngle.from_dot``)."""
    found = []
    for path in sorted((SRC / "weylccr").glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("_p", "_c", "_q"):
                found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and any(a.name == "_Q1" for a in node.names):
                found.append(f"{path.name}:{node.lineno} imports _Q1")
    assert found == []


#: (module, function, builtin class) raises that ``src/`` keeps, with the reason
BUILTIN_RAISES = {
    ("verify.py", "check", "ValueError"):
        "a duplicate row name is a fault of the check table itself, met when "
        "the module is imported, never a user's input",
}


def test_src_raises_no_builtin_exception_class():
    """Bad input raises a ``WeylError``; where a builtin class was raised
    before, the typed class inherits it too (``ZeroDenominator`` is a
    ``ZeroDivisionError``), so ``except`` clauses keep working."""
    found = set()

    class Raises(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, ["<module>"]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Raise(self, node):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            builtin = getattr(builtins, getattr(exc, "id", ""), None)
            if isinstance(builtin, type) and issubclass(builtin, BaseException):
                found.add((self.module, self.scope[-1], exc.id))

    for path in sorted((SRC / "weylccr").glob("*.py")):
        Raises(path.name).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert found == set(BUILTIN_RAISES)
