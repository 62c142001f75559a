"""Direct tests for the C-semantics expression evaluator."""

import math

import numpy as np
import pytest

from repro.errors import InterpError
from repro.lang import ast, semantics
from repro.lang.ctypes import DOUBLE, FLOAT, INT
from repro.lang.parser import parse_expression, parse_program


class Env:
    """Minimal evaluator environment for tests."""

    def __init__(self, **bindings):
        self.vars = dict(bindings)
        self.dtypes = {}

    def load(self, name):
        try:
            return self.vars[name]
        except KeyError:
            raise InterpError(name)

    def store(self, name, value):
        self.vars[name] = value

    def declare(self, name, ctype, value):
        self.vars[name] = value if value is not None else 0

    def call(self, func, args):
        return semantics.Builtins.call(func, args)


def ev(text, **bindings):
    return semantics.evaluate(parse_expression(text), Env(**bindings))


class TestArithmetic:
    def test_integer_ops(self):
        assert ev("2 + 3 * 4") == 14
        assert ev("(2 + 3) * 4") == 20

    def test_c_integer_division_truncates_toward_zero(self):
        assert ev("7 / 2") == 3
        assert ev("-7 / 2") == -3
        assert ev("7 / -2") == -3

    def test_c_modulo_sign_follows_dividend(self):
        assert ev("7 % 3") == 1
        assert ev("-7 % 3") == -1

    def test_division_by_zero_raises(self):
        with pytest.raises(InterpError):
            ev("1 / 0")
        with pytest.raises(InterpError):
            ev("1 % 0")

    def test_float_division(self):
        assert ev("7.0 / 2.0") == 3.5

    def test_mixed_int_float(self):
        assert ev("1 + 0.5") == 1.5

    def test_bitwise(self):
        assert ev("12 & 10") == 8
        assert ev("12 | 10") == 14
        assert ev("12 ^ 10") == 6
        assert ev("1 << 4") == 16
        assert ev("~0") == -1


def _same_float(got, want):
    """Equal as C doubles: NaN matches NaN, and zeros/infinities keep sign."""
    got = float(got)
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


# C/IEEE 754: x/±0.0 is a signed infinity, 0.0/0.0 and fmod(x, 0.0) NaN.
FLOAT_BY_ZERO = [
    ("/", 1.0, 0.0, math.inf),
    ("/", -1.0, 0.0, -math.inf),
    ("/", 1.0, -0.0, -math.inf),
    ("/", -1.0, -0.0, math.inf),
    ("/", 0.0, 0.0, math.nan),
    ("/", 3, 0.0, math.inf),
    ("/", 2.5, 0, math.inf),
    ("%", 1.0, 0.0, math.nan),
    ("%", -2.5, -0.0, math.nan),
    ("%", 3, 0.0, math.nan),
    ("%", math.inf, 2.0, math.nan),
]


class TestFloatDivisionByZero:
    @pytest.mark.parametrize("wrap", [lambda v: v, np.float64],
                             ids=["python", "numpy"])
    @pytest.mark.parametrize("op, a, b, want", FLOAT_BY_ZERO)
    def test_follows_c(self, op, a, b, want, wrap):
        fn = semantics.c_div if op == "/" else semantics.c_mod
        if isinstance(a, float):
            a = wrap(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert _same_float(fn(a, b), want)

    def test_expression_level(self):
        assert ev("1.0 / 0.0") == math.inf
        assert math.isnan(ev("0.0 / 0.0"))
        assert math.isnan(ev("x % 0.0", x=5.0))


class TestComparisonsAndLogic:
    def test_relational_yield_int(self):
        assert ev("3 < 4") == 1
        assert ev("4 <= 3") == 0

    def test_short_circuit_and(self):
        # 0 && (1/0) must not evaluate the right side.
        assert ev("0 && 1 / 0") == 0

    def test_short_circuit_or(self):
        assert ev("1 || 1 / 0") == 1

    def test_not(self):
        assert ev("!0") == 1 and ev("!5") == 0

    def test_ternary_lazy(self):
        assert ev("1 ? 7 : 1 / 0") == 7
        assert ev("0 ? 1 / 0 : 9") == 9


class TestNamesAndArrays:
    def test_name_lookup(self):
        assert ev("x + 1", x=41) == 42

    def test_unbound_raises(self):
        with pytest.raises(InterpError):
            ev("zzz")

    def test_subscript_read_write(self):
        a = np.zeros(4)
        env = Env(a=a, i=2)
        semantics.assign(parse_expression("a[i]"), 7.5, env)
        assert a[2] == 7.5
        assert semantics.evaluate(parse_expression("a[2]"), env) == 7.5

    def test_multidim_subscript(self):
        m = np.arange(6.0).reshape(2, 3)
        assert ev("m[1][2]", m=m) == 5.0

    def test_out_of_bounds_raises(self):
        with pytest.raises(InterpError):
            ev("a[10]", a=np.zeros(4))

    def test_subscript_of_scalar_raises(self):
        with pytest.raises(InterpError):
            ev("x[0]", x=3)

    def test_deref_reads_element_zero(self):
        assert ev("*p", p=np.array([9.0, 1.0])) == 9.0


class TestCasts:
    def test_int_cast_truncates(self):
        assert ev("(int)3.9") == 3
        assert ev("(int)(0.0 - 3.9)") == -3

    def test_float_cast_rounds_to_f32(self):
        value = ev("(float)1.00000001")
        assert value == np.float32(1.00000001)

    def test_double_cast(self):
        assert ev("(double)3") == 3.0


class TestIncrements:
    def test_postfix_returns_old(self):
        env = Env(i=5)
        assert semantics.evaluate(parse_expression("i++"), env) == 5
        assert env.vars["i"] == 6

    def test_prefix_returns_new(self):
        env = Env(i=5)
        assert semantics.evaluate(parse_expression("++i"), env) == 6
        assert env.vars["i"] == 6


class TestExecSimple:
    def stmt(self, text):
        return parse_program(f"void main() {{ {text} }}").func("main").body.body[0]

    def test_compound_assign(self):
        env = Env(x=10)
        semantics.exec_simple(self.stmt("x /= 4;"), env)
        assert env.vars["x"] == 2  # integer division

    def test_plain_assign(self):
        env = Env(x=0)
        semantics.exec_simple(self.stmt("x = 3 * 7;"), env)
        assert env.vars["x"] == 21


class TestBuiltins:
    def test_math(self):
        assert ev("sqrt(16.0)") == 4.0
        assert ev("fabs(0.0 - 3.0)") == 3.0
        assert ev("fmax(2.0, 5.0)") == 5.0
        assert ev("pow(2.0, 10.0)") == 1024.0

    def test_float32_variants_truncate(self):
        assert ev("sqrtf(2.0)") == pytest.approx(np.float32(np.sqrt(np.float32(2.0))))

    def test_unknown_builtin_raises(self):
        with pytest.raises(InterpError):
            ev("frobnicate(1.0)")
