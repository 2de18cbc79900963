import ast
import math
import re
import sys
import zlib
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import rkforge
from rkforge import shipped_methods, stepcontrol
from rkforge.codegen import (
    _MODULE_NAMES,
    TemplateError,
    check_template,
    coefficient_arrays,
    format_manifest,
    generate_module_set,
    list_body,
    render_method_module,
)
from rkforge.generated import METHODS
from rkforge.stepcontrol import (
    WIDE_N,
    ODEProblem,
    Tolerances,
    _float_coefficients,
    adaptive_integrate,
    array_step,
    erk_step_generic,
    interpreted_kernel,
)
from rkforge.tableau import parse_method_file
from test_tableau import SAMPLE, sample_tableau

TEMPLATE = Path(rkforge.__file__).parent / "templates" / "solver.py.tmpl"
TABLEAUS = {t.name: t for t in shipped_methods()}


class TestTemplates:
    def test_default_templates_load(self):
        # one packaged template, without section markers, that passes the check
        assert [p.name for p in TEMPLATE.parent.glob("*.tmpl")] == [TEMPLATE.name]
        text = TEMPLATE.read_text()
        assert "#::" not in text
        assert check_template(text) == text

    def test_unknown_placeholder_rejected(self):
        with pytest.raises(TemplateError, match="mystery"):
            check_template(TEMPLATE.read_text() + "\n# {{mystery}}\n")

    def test_missing_required_placeholder_rejected(self):
        with pytest.raises(TemplateError, match="y_hat_update"):
            check_template(TEMPLATE.read_text().replace("{{y_hat_update}}", "0"))

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("def _step_n(", "def _step_loop("),
        lambda text: text + "\n\ndef _step_n(f, t, y, h, reuse=None):\n    pass\n\n\n",
    ], ids=["renamed", "twice"])
    def test_list_body_block_required(self, edit):
        # list_body cuts exactly one _step_n block out of the template
        with pytest.raises(TemplateError, match="exactly one 'def _step_n\\(' block"):
            check_template(edit(TEMPLATE.read_text()))


class TestRenderSolverSource:
    DRIVERS = ("sample3", "sample3_last", "sample3_info",
               "sample3_fixed", "sample3_fixed_last")

    def test_five_variants(self):
        # the one module defines the five drivers and no other public function
        tree = ast.parse(render_method_module(sample_tableau()))
        public = tuple(n.name for n in tree.body
                       if isinstance(n, ast.FunctionDef) and not n.name.startswith("_"))
        assert public == self.DRIVERS

    def test_each_variant_compiles(self):
        ns = {}
        exec(compile(render_method_module(sample_tableau()), "<sample3>", "exec"), ns)
        for name in self.DRIVERS:
            assert callable(ns[name]), name
            assert ns[name].__code__.co_filename == "<sample3>", name

    def test_sample_stage_structure(self):
        src = render_method_module(sample_tableau())
        # stage 2 references only k1 (a21 = 1)
        stage2 = re.search(r"    k2 = (.+)", src).group(1)
        assert "k1[a]" in stage2 and "k2" not in stage2.replace("k2 =", "")
        # stage 3 references k1 and k2 through the 1/4 constants
        stage3 = re.search(r"    k3 = (.+)", src).group(1)
        assert "A_3_1" in stage3 and "A_3_2" in stage3
        assert "A_3_1 = 0.25" in src and "A_3_2 = 0.25" in src
        # the main update omits k3 (b3 = 0)
        update = re.search(r"    y_next = (.+)", src).group(1)
        assert "k3" not in update
        assert "B_1" in update and "B_2" in update

    @pytest.mark.parametrize("a_last, b, c_last, last", [
        # sample3: the last row has b's pattern, other values, and c_3 = 1/2
        ((F(1, 4), F(1, 4), 0), (F(1, 2), F(1, 2), 0), F(1, 2), "None"),
        # b's pattern, other values and c_3 = 1
        ((F(1, 4), F(3, 4), 0), (F(1, 2), F(1, 2), 0), 1, "None"),
        # first same as last: the check guards against rebound constants
        ((F(1, 2), F(1, 2), 0), (F(1, 2), F(1, 2), 0), 1,
         "k3 if (A_3_1, A_3_2, C_3) == (B_1, B_2, 1.0) else None"),
    ])
    def test_first_same_as_last_is_decided_by_the_renderer(self, a_last, b, c_last, last):
        t = sample_tableau()
        t = replace(t, p=2, p_hat=1, a=(*t.a[:2], a_last), b=b, b_hat=(1, 0, 0),
                    c=(*t.c[:2], c_last))
        src = render_method_module(t)
        body = src[src.index("def _step"):src.index("_step.lists")]
        assert re.findall(r"k(\d) = f\(", body) == ["1", "2", "3"]
        assert f"reuse[:] = k1, {last}\n" in body

    def test_stage_with_an_all_zero_row(self):
        # c = (0, 0, 1): stage 2's row of a is all zero, so it reads f(t, y)
        zero_row = replace(sample_tableau(), name="zerorow", p=1, p_hat=1,
                           a=((0, 0, 0), (0, 0, 0), (F(1, 2), F(1, 2), 0)),
                           b=(F(1, 6), F(1, 3), F(1, 2)), b_hat=(F(1, 2), F(1, 2), 0),
                           c=(0, 0, 1))
        src = render_method_module(zero_row)
        assert "    k2 = f(t, y)\n" in src
        ns = {}
        exec(compile(src, "<zerorow>", "exec"), ns)
        rng = np.random.default_rng(5)
        for n in range(1, WIDE_N + 1):
            f = lambda t, y: [math.cos(t) * v - 0.1 * v * v for v in y]
            y = rng.standard_normal(n).tolist()
            want = ns["_step_n"](f, 0.3, y, 0.05)
            got = list_body(ns, n)(f, 0.3, y, 0.05)
            assert np.array(got).tobytes() == np.array(want).tobytes(), n
            rhs = ODEProblem(n, lambda t, y: np.cos(t) * y - 0.1 * y * y)
            reference = erk_step_generic(zero_row, rhs, 0.3, np.array(y), 0.05)[:2]
            assert np.allclose(want, reference, rtol=0, atol=1e-12), n

    def test_identical_weight_rows_render_symmetrically(self):
        t = sample_tableau()
        twin = type(t)(name="twin", description="d", s=t.s, p=t.p, p_hat=t.p,
                       a=t.a, b=t.b, b_hat=t.b, c=t.c)
        src = render_method_module(twin)
        y_expr = re.search(r"    y_next = (.+)", src).group(1)
        yh_expr = re.search(r"    y_hat_next = (.+)", src).group(1)
        assert y_expr.replace("B_", "BH_") == yh_expr

    def test_rendering_is_deterministic(self):
        a = render_method_module(sample_tableau())
        b = render_method_module(sample_tableau())
        assert a == b

    def test_invalid_tableau_rejected(self):
        t = sample_tableau()
        broken = type(t)(name=t.name, description="", s=t.s, p=t.p, p_hat=t.p_hat,
                         a=t.a, b=t.b, b_hat=t.b_hat,
                         c=(t.c[0], t.c[1], t.c[2] + 1))
        with pytest.raises(ValueError, match="^sample3: violation: row-sum, stage 3"):
            render_method_module(broken)

    def test_module_names_match_a_rendered_module(self):
        # every name the module binds or reads at module scope, less its
        # drivers, its coefficient constants and the locals of its functions
        tree = ast.parse(render_method_module(TABLEAUS["DOPRI5"]))
        functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {a.asname or a.name for n in tree.body
                  if isinstance(n, ast.ImportFrom | ast.Import) for a in n.names}
        names |= {fn.name for fn in functions}
        local = {a.arg for fn in functions for a in fn.args.args}
        local |= {n.id for fn in functions for n in ast.walk(fn)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        drivers = {"DOPRI5" + s for s in ("", "_last", "_info", "_fixed", "_fixed_last")}
        constants = {n for n in names if re.fullmatch(r"A_\d+_\d+|BH?_\d+|C_\d+", n)}
        assert names - local - drivers - constants == _MODULE_NAMES

    @pytest.mark.parametrize("name", ["Class", "None", "KERNEL", "range", "A_2_1",
                                      "integrate", "B_9", "_step_n"])
    def test_unusable_method_names_refused(self, tmp_path, name):
        # a keyword as method or module name, or a driver (integrate gives
        # integrate_info) that shadows a name the module uses or is named
        # like a coefficient, which the per-N list bodies look up by name
        # (ERK43b has no B_9)
        with pytest.raises(ValueError, match=f"method name {name!r}"):
            generate_module_set([replace(TABLEAUS["ERK43b"], name=name)], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_description_with_placeholder_syntax(self, tmp_path):
        # method text is substituted, never rescanned for placeholders
        t = sample_tableau()
        braced = type(t)(name=t.name, description="uses {{b}} as written",
                         s=t.s, p=t.p, p_hat=t.p_hat, a=t.a, b=t.b,
                         b_hat=t.b_hat, c=t.c)
        generate_module_set([braced], tmp_path)
        src = (tmp_path / "sample3.py").read_text()
        assert "uses {{b}} as written" in src
        compile(src, "sample3.py", "exec")

    def test_zero_elision_everywhere(self):
        for t in shipped_methods():
            src = render_method_module(t)
            for line in src.splitlines():
                m = re.match(r"(A_\d+_\d+|B\w*_\d+|C_\d+) = (.+)", line)
                if m:
                    assert float(m.group(2)) != 0.0, line

    def test_no_array_indexed_coefficients(self):
        # coefficients must be scalar constants, never array lookups
        for t in shipped_methods():
            src = render_method_module(t)
            assert not re.search(r"\b(a|b|b_hat|c|A|B|BH|C)\[", src)

    def test_all_nonzero_coefficients_present(self):
        t = next(m for m in shipped_methods() if m.name == "DOPRI5")
        src = render_method_module(t)
        names = set(re.findall(r"^(\w+) = ", src, re.MULTILINE))
        expected = {f"A_{i+1}_{j+1}" for i in range(t.s) for j in range(i)
                    if t.a[i][j] != 0}
        expected |= {f"B_{j+1}" for j in range(t.s) if t.b[j] != 0}
        expected |= {f"BH_{j+1}" for j in range(t.s) if t.b_hat[j] != 0}
        expected |= {f"C_{i+1}" for i in range(1, t.s) if t.c[i] != 0}
        assert expected <= names


class TestGenerateModuleSet:
    def test_sample_set_and_manifest(self, tmp_path):
        methods = parse_method_file(SAMPLE)
        manifest = generate_module_set(methods, tmp_path)
        assert [rel for rel, _ in manifest] == ["__init__.py", "sample3.py"]
        text = format_manifest(manifest)
        for line in text.splitlines():
            rel, digest = line.split(" ")
            assert len(digest) == 64
            assert (tmp_path / rel).exists()

    def test_rerun_hashes_stable(self, tmp_path):
        methods = parse_method_file(SAMPLE)
        m1 = generate_module_set(methods, tmp_path)
        m2 = generate_module_set(methods, tmp_path)
        assert m1 == m2

    def test_empty_sequence_gives_index_only(self, tmp_path):
        manifest = generate_module_set([], tmp_path)
        assert [rel for rel, _ in manifest] == ["__init__.py"]
        assert "METHODS = {" in (tmp_path / "__init__.py").read_text()

    def test_duplicate_names_abort_before_write(self, tmp_path):
        t = sample_tableau()
        with pytest.raises(ValueError, match="duplicate"):
            generate_module_set([t, t], tmp_path / "out")
        assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())

    def test_generated_module_runs_standalone(self, tmp_path):
        import numpy as np
        methods = parse_method_file(SAMPLE)
        generate_module_set(methods, tmp_path)
        namespace = {}
        code = (tmp_path / "sample3.py").read_text()
        exec(compile(code, "sample3.py", "exec"), namespace)
        f = lambda t, y: np.asarray(y, dtype=float)
        y1, y2 = namespace["_step"](f, 0.0, np.array([1.0]), 0.1)
        assert y1[0] == pytest.approx(1.105, abs=1e-15)
        assert y2[0] == pytest.approx(1.1051666666666666, abs=1e-15)

    def test_failed_replace_leaves_the_files_as_they_were(self, tmp_path, monkeypatch):
        old = {"__init__.py": "old index\n", "sample3.py": "old module\n"}
        for rel, text in old.items():
            (tmp_path / rel).write_text(text)

        def failing(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr("rkforge.codegen.os.replace", failing)
        with pytest.raises(OSError, match="cannot replace"):
            generate_module_set(parse_method_file(SAMPLE), tmp_path)
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == old

    def test_shipped_tree_matches_generator_output(self, tmp_path):
        # the committed generated/ directory is exactly what the generator
        # produces from the shipped method file
        methods = shipped_methods()
        manifest = generate_module_set(methods, tmp_path)
        import rkforge.generated as gen
        committed = Path(gen.__file__).parent
        for rel, digest in manifest:
            assert (committed / rel).read_text() == (tmp_path / rel).read_text(), rel


class TestCoefficientArrays:
    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_arrays_hold_the_tableau_doubles(self, name):
        # the module's constants laid out as array_step's (a, b, b_hat, c),
        # 0.0 where the module binds no constant
        got, want = METHODS[name]._ARRAYS, _float_coefficients(TABLEAUS[name])
        assert [(v.dtype, v.shape, v.tobytes()) for v in got] == \
            [(v.dtype, v.shape, v.tobytes()) for v in want]

    def test_built_from_the_namespace_when_called(self):
        ns = {}
        exec(compile(render_method_module(sample_tableau()), "<sample3>", "exec"), ns)
        a, b, b_hat, c = ns["_ARRAYS"]
        assert (a[2, 0], b[0], c[2]) == (0.25, 0.5, 0.5)
        ns["A_3_1"], ns["B_1"] = 0.75, 0.0
        del ns["C_3"]
        a, b, b_hat, c = coefficient_arrays(ns, 3)
        assert (a[2, 0], b[0], c[2]) == (0.75, 0.0, 0.0)
        # the module's own arrays were built once, at import
        assert (ns["_ARRAYS"][0][2, 0], ns["_ARRAYS"][1][0]) == (0.25, 0.5)


class TestVariantConsistency:
    def test_last_variant_matches_trajectory_end(self):
        import numpy as np
        from rkforge.generated import dopri5
        f = lambda t, y: np.array([y[1], -y[0]])
        traj = dopri5.DOPRI5(f, 1e-9, 1e-9, np.array([1.0, 0.0]), 0.0, 3.0)
        t_n, y_n = dopri5.DOPRI5_last(f, 1e-9, 1e-9, np.array([1.0, 0.0]), 0.0, 3.0)
        assert t_n == traj.times[-1]
        assert np.array_equal(y_n, traj.states[-1])

    def test_info_variant_matches_trajectory_grid(self):
        import numpy as np
        from rkforge.generated import dopri5
        f = lambda t, y: np.array([y[1], -y[0]])
        traj = dopri5.DOPRI5(f, 1e-9, 1e-9, np.array([1.0, 0.0]), 0.0, 3.0)
        log = dopri5.DOPRI5_info(f, 1e-9, 1e-9, np.array([1.0, 0.0]), 0.0, 3.0)
        assert np.array_equal(log.accepted_t, traj.times[1:])

    def test_variant_source_executes_standalone(self):
        # the one rendered module runs all five drivers on y' = y over [0, 1]
        ns = {}
        exec(compile(render_method_module(sample_tableau()), "<sample3>", "exec"), ns)
        f = lambda t, y: np.asarray(y)
        adaptive = (f, 1e-6, 1e-6, np.array([1.0]), 0.0, 1.0)
        fixed = (f, 1e-3, np.array([1.0]), 0.0, 1.0)
        traj = ns["sample3"](*adaptive)
        log = ns["sample3_info"](*adaptive)
        fixed_traj = ns["sample3_fixed"](*fixed)
        ends = [(traj.times[-1], traj.states[-1]),
                ns["sample3_last"](*adaptive),
                (fixed_traj.times[-1], fixed_traj.states[-1]),
                ns["sample3_fixed_last"](*fixed)]
        for t_n, y_n in ends:
            assert t_n == 1.0
            assert abs(float(y_n[0]) - np.e) < 1e-4
        assert np.array_equal(log.accepted_t, traj.times[1:])


class TestDimensionSwitch:
    """Given an array above WIDE_N, every generated _step hands the system to
    the shared array kernel, so it agrees with the interpreter bit for bit."""

    @staticmethod
    def both_bodies(monkeypatch, call):
        """call() with stepcontrol.WIDE_N above N, which runs the float-list
        body, then at 0, which runs array_step; returns the two results and
        the number of array_step calls in each run."""
        calls = []

        def spy(*args):
            calls.append(1)
            return array_step(*args)

        monkeypatch.setattr(stepcontrol, "array_step", spy)
        results, counts = [], []
        for wide_n in (sys.maxsize, 0):
            monkeypatch.setattr(stepcontrol, "WIDE_N", wide_n)
            calls.clear()
            results.append(call())
            counts.append(len(calls))
        return results, counts

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_bodies_bit_identical(self, name):
        mod = METHODS[name]
        tableau = TABLEAUS[name]
        seed = zlib.crc32(name.encode())
        print(f"{name}: seed {seed}")
        rng = np.random.default_rng(seed)
        for n in (WIDE_N + 1, 3 * WIDE_N, 1000):
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
            h = 10.0 ** rng.uniform(-4, -1)
            t0 = rng.uniform(-5, 5)
            mat = rng.standard_normal((n, n))
            f = lambda t, yy: mat @ yy + np.cos(t + yy)
            y_gen, hat_gen = mod._step(f, t0, y, h)
            y_ref, hat_ref = erk_step_generic(tableau, ODEProblem(n, f), t0, y, h)[:2]
            assert np.array_equal(y_gen, y_ref), (name, n)
            assert np.array_equal(hat_gen, hat_ref), (name, n)

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_rhs_reusing_its_output_buffer(self, monkeypatch, name):
        mod = METHODS[name]
        n = 3 * WIDE_N
        y = np.linspace(0.5, 2.0, n)
        out = np.empty(n)

        def in_place(t, yy):
            np.multiply(yy, np.cos(t + yy), out=out)
            return out

        def fresh(t, yy):
            return yy * np.cos(t + yy)

        expected, counts = self.both_bodies(monkeypatch, lambda: mod._step(fresh, 0.3, y, 0.05))
        assert counts == [0, 1], name
        got, counts = self.both_bodies(monkeypatch, lambda: mod._step(in_place, 0.3, y, 0.05))
        assert counts == [0, 1], name
        for body_expected, body_got in zip(expected, got):
            assert all(np.array_equal(e, g) for e, g in zip(body_expected, body_got)), name
        # a stage the driver carries to the next attempt is a copy, which the
        # next rhs call cannot overwrite
        runs = []
        for rhs in (fresh, in_place):
            trajectories, counts = self.both_bodies(monkeypatch, lambda: adaptive_integrate(
                mod.KERNEL, rhs, Tolerances(1e-8, 1e-8), y, 0.3, 2.0))
            assert counts[0] == 0 and counts[1] > 0, name
            runs.append(trajectories)
        for body_expected, body_got in zip(*runs):
            assert np.array_equal(body_expected.times, body_got.times), name
            assert np.array_equal(body_expected.states, body_got.states), name

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_rhs_keeping_its_inputs(self, name):
        # an rhs may keep the arrays it is given: no later stage, and no next
        # step, may write into one of them or into the stages reuse carries
        mod = METHODS[name]
        n = 3 * WIDE_N
        seen = []

        def keeping(t, yy):
            seen.append((yy, yy.tobytes()))
            return yy * np.cos(t + yy)

        t, y, h = 0.3, np.linspace(0.5, 2.0, n), 0.05
        reuse = [None, None]
        y_next, _ = mod._step(keeping, t, y, h, reuse)
        carried = [(s, s.tobytes()) for s in reuse if s is not None]
        assert np.array_equal(reuse[0], keeping(t, y)), name
        if reuse[1] is not None:
            assert np.array_equal(reuse[1], keeping(t + h, y_next)), name
        reuse[0] = reuse[1]
        mod._step(keeping, t + h, y_next, h, reuse)
        assert all(s.tobytes() == b for s, b in seen + carried), name

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_ensemble_trajectory_bit_identical(self, name):
        copies = 20  # N = 40

        def rhs(t, y):
            u, v = y[:copies], y[copies:]
            uuv = u * u * v
            return np.concatenate((1.0 + uuv - 4.0 * u, 3.0 * u - uuv))

        y_0 = np.concatenate((np.linspace(0.5, 2.0, copies), np.linspace(2.0, 4.0, copies)))
        generated_run, interpreted_run = (
            adaptive_integrate(kernel, rhs, Tolerances(1e-6, 1e-6), y_0, 0.0, 10.0)
            for kernel in (METHODS[name].KERNEL, interpreted_kernel(TABLEAUS[name])))
        assert np.array_equal(generated_run.times, interpreted_run.times)
        assert np.array_equal(generated_run.states, interpreted_run.states)
