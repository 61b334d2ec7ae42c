"""The input contract of the public surface (README, "Input contract"), as
one property: every value parameter of every public function and input
type, given junk with its other arguments valid, gets an answer or a
ChainSpectraError, within a time limit.

The callables are those of chain_spectra.__all__ plus jacobi.verify_family,
and their parameters are read by inspect.signature.  A parameter typed as
one of the package's objects (a ChainSpec, a family, a LatticePoint, a
SymTridiagonal, a decomposition or a mode spectrum) takes only such an
object, so it draws no junk; an object the package built from junk is
passed on, as that argument, to every callable that takes one.
"""

import contextlib
import enum
import inspect
import math
import signal
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chain_spectra
from chain_spectra import (
    ChainSpec,
    ChainSpectraError,
    FamilyParams,
    InteractionKind,
    JacobiFamily,
    KrawtchoukInteraction,
    KrawtchoukParams,
    LatticePoint,
    LevelGroup,
    LevelTable,
    ModeSpectrum,
    SpectralDecomposition,
    SymTridiagonal,
    analytic_decomposition,
    build_jacobi,
    lattice_point,
)
from chain_spectra.jacobi import verify_family

# Every call gets this many seconds of wall time.
TIME_LIMIT = 5.0

# Records the package returns; it builds them and checks nothing in them.
_RESULTS = (LevelGroup, LevelTable, ModeSpectrum, SpectralDecomposition)

# The annotations that name an input object, and the classes each admits.
_INPUTS = {
    "ChainSpec": (ChainSpec,),
    "InteractionKind": typing.get_args(InteractionKind),
    "FamilyParams": typing.get_args(FamilyParams),
    "JacobiFamily": typing.get_args(JacobiFamily),
    "LatticePoint": (LatticePoint,),
    "SymTridiagonal": (SymTridiagonal,),
}
# Annotations of the parameters that take only an object: every input but
# the interaction, which ChainSpec checks, and the result records.
_OBJECTS = (set(_INPUTS) - {"InteractionKind"}) | {
    "SpectralDecomposition", "ModeSpectrum | None",
}


def _callables():
    for name in chain_spectra.__all__:
        value = getattr(chain_spectra, name)
        if inspect.isfunction(value):
            yield name, value
        elif (
            inspect.isclass(value)
            and not issubclass(value, (BaseException, enum.Enum, *_RESULTS))
        ):
            yield name, value
    yield "verify_family", verify_family


CALLABLES = dict(_callables())

_FAMILY = KrawtchoukParams(N=3, p=0.5)

# A valid argument for every parameter name of CALLABLES.
VALID = {
    "n": 3,
    "omega": 1.0,
    "coupling": 0.1,
    "interaction": KrawtchoukInteraction(),
    "hbar": 1.0,
    "alpha": 0.5,
    "q": 1.6,
    "gammas": (1.0, 0.5),
    "N": 3,
    "p": 0.5,
    "beta": 0.5,
    "cbar": -1.0,
    "diag": (2.0, 2.0, 2.0),
    "offdiag": (1.0, 1.0),
    "x": 1,
    "i": 1,
    "value": 1.0,
    "chain": ChainSpec(n=3, omega=1.0, coupling=0.1, interaction=KrawtchoukInteraction()),
    "max_total": 2,
    "method": "auto",
    "levels": (0.0, 1.0, 3.0),
    "occupations": (0, 1, 0),
    "spectrum": None,
    "fp": _FAMILY,
    "fam": _FAMILY,
    "point": lattice_point(_FAMILY, 1),
    "M": build_jacobi(_FAMILY),
    "dec": analytic_decomposition(_FAMILY),
    "perturb": False,
}

_HUGE = 10**5000
# One junk strategy for every value parameter.  Each entry is drawn by its
# label, which Hypothesis can print: repr(10**5000) raises ValueError.
# In-range huge sizes (10**6 up to sys.maxsize) are left out: those are
# budgets of their own (ROADMAP item 12).
JUNK = {
    "None": None,
    "'1'": "1",
    "''": "",
    "True": True,
    "False": False,
    "1j": 1j,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "10**400": 10**400,
    "-10**400": -10**400,
    "10**5000": _HUGE,
    "-10**5000": -_HUGE,
    "np.int64(3)": np.int64(3),
    "np.int64(-2)": np.int64(-2),
    "np.uint8(2)": np.uint8(2),
    "np.float64(0.5)": np.float64(0.5),
    "np.float64(nan)": np.float64(math.nan),
    "np.float32(-2.5)": np.float32(-2.5),
    "()": (),
    "[]": [],
    "[[1.0], [1.0, 2.0]]": [[1.0], [1.0, 2.0]],
    "((1.0, 2.0), 3.0)": ((1.0, 2.0), 3.0),
    "(None, 1.0)": (None, 1.0),
    "('a', 'b', 'c')": ("a", "b", "c"),
    "(1.0, nan, 2.0)": (1.0, math.nan, 2.0),
    "(10**400, 1.0, 2.0)": (10**400, 1.0, 2.0),
    "[1.0, 10**5000]": [1.0, _HUGE],
    "(True, 1.0, 0.0)": (True, 1.0, 0.0),
}


def _value_parameters():
    for name, call in CALLABLES.items():
        for param in inspect.signature(call).parameters.values():
            if param.annotation not in _OBJECTS:
                yield name, param.name


VALUE_PARAMETERS = list(_value_parameters())


class _TimeUp(BaseException):
    """Raised by the alarm; a BaseException, so no `except Exception` in
    the code under test can swallow it."""


@contextlib.contextmanager
def _time_limit(what):
    def expire(signum, frame):
        raise _TimeUp

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT)
    try:
        yield
    except _TimeUp:
        raise AssertionError(f"{what} ran past {TIME_LIMIT} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _valid_arguments(call):
    return {name: VALID[name] for name in inspect.signature(call).parameters}


def _takers(obj):
    """(name, parameter) of every callable with a parameter that takes obj."""
    for name, call in CALLABLES.items():
        for param in inspect.signature(call).parameters.values():
            if isinstance(obj, _INPUTS.get(param.annotation, ())):
                yield name, param.name


def _exercise(name, arguments, what):
    """Call CALLABLES[name]; it must return or raise a ChainSpectraError.
    An input object it returns is passed on to every callable taking one."""
    try:
        with _time_limit(what):
            result = CALLABLES[name](**arguments)
    except ChainSpectraError:
        return
    for taker, param in _takers(result):
        passed = {**_valid_arguments(CALLABLES[taker]), param: result}
        _exercise(taker, passed, f"{taker}({param}=<{what}>)")


def test_every_parameter_has_a_valid_argument_that_is_accepted():
    # Guards the property below against passing vacuously: with every
    # argument valid, each call answers.
    for name, call in CALLABLES.items():
        with _time_limit(name):
            call(**_valid_arguments(call))
    assert len(VALUE_PARAMETERS) >= 30


@pytest.mark.parametrize(
    "name, param", VALUE_PARAMETERS, ids=[f"{n}.{p}" for n, p in VALUE_PARAMETERS]
)
@settings(max_examples=2 * len(JUNK), deadline=None, derandomize=True)
@given(label=st.sampled_from(sorted(JUNK)))
def test_junk_value_gets_an_answer_or_a_chain_spectra_error(name, param, label):
    arguments = {**_valid_arguments(CALLABLES[name]), param: JUNK[label]}
    _exercise(name, arguments, f"{name}({param}={label})")
