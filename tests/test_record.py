"""The frozen records of bellpersist._record, on one real class per module."""

import ast
import inspect
import pydoc
from fractions import Fraction
from pathlib import Path

import pytest

from bellpersist import bell, dicke, monogamy, persistency, qccr, qstate
from bellpersist._record import frozen

# one record per module that uses them: (class, field values, field names)
RECORDS = {
    "dicke": (
        dicke.DickeMixture,
        (4, ((1, Fraction(1, 3)), (2, Fraction(2, 3)))),
        ("n", "components"),
    ),
    "monogamy": (
        monogamy.AnticommGraph,
        ((qstate.PauliString("XI"), qstate.PauliString("ZI")), (2, 1)),
        ("vertices", "neighbor_masks"),
    ),
    "persistency": (
        persistency.PersistencyResult,
        (5, 2, 3, 1.5),
        ("n_parties", "max_traced", "witness_m", "margin"),
    ),
    "qccr": (qccr.GhzMixture, (5, 3), ("n_parties", "block_size")),
    "qstate": (qstate.PlaneObservable, ("xy", 0.5), ("plane", "angle")),
}


def _make(module):
    cls, values, _ = RECORDS[module]
    return cls(*values)


@pytest.mark.parametrize("module", sorted(RECORDS))
class TestRecord:
    def test_signature_lists_the_fields(self, module):
        cls, _, names = RECORDS[module]
        assert tuple(inspect.signature(cls).parameters) == names
        assert cls._fields == names
        text = pydoc.render_doc(cls, renderer=pydoc.plaintext)
        assert f"{cls.__name__}({', '.join(names)})" in text

    def test_keyword_construction(self, module):
        cls, values, names = RECORDS[module]
        record = cls(**dict(zip(names, values)))
        assert record == _make(module)
        assert tuple(getattr(record, name) for name in names) == values
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})

    def test_equality_and_hash(self, module):
        cls, values, names = RECORDS[module]
        a, b = _make(module), _make(module)
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(values)
        assert len({a, b}) == 1
        assert a != values

        @frozen
        class Twin:
            __annotations__ = dict.fromkeys(names, object)

        assert a != Twin(*values) and Twin(*values) != a

    def test_repr(self, module):
        cls, values, names = RECORDS[module]
        inner = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
        assert repr(_make(module)) == f"{cls.__name__}({inner})"

    def test_fields_are_frozen(self, module):
        _, values, names = RECORDS[module]
        record = _make(module)
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in names:
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert tuple(getattr(record, name) for name in names) == values


class TestBellFunctional:
    # a record whose coefficient dict makes it unhashable, with a settings
    # distribution that is no field
    def test_signature(self):
        assert str(inspect.signature(bell.BellFunctional)) == (
            "(n_parties, coefficients, settings_per_party=2)"
        )
        assert bell.BellFunctional._fields == ("n_parties", "coefficients", "settings_per_party")

    def test_fields_are_frozen(self):
        f = bell.makb(3)
        for name in (*f._fields, "settings_distribution"):
            with pytest.raises(AttributeError):
                setattr(f, name, None)
            with pytest.raises(AttributeError):
                delattr(f, name)
        assert f.n_parties == 3 and f.settings_distribution is None

    def test_equality_ignores_the_distribution(self):
        plain = bell.makb(3)
        attached = plain.with_game_distribution()
        assert attached.settings_distribution is not None and plain.settings_distribution is None
        assert attached == plain and attached.coefficients is plain.coefficients
        assert attached.with_game_distribution() is attached
        assert "settings_distribution" not in repr(attached)


class TestDefaultsAndValidation:
    def test_default_field(self):
        game = qccr.chsh_game()
        spec = qccr.GameSpec(
            functional=game.functional, turns=game.turns, state=game.state
        )
        assert spec.name == "game"
        assert tuple(inspect.signature(qccr.GameSpec).parameters) == (
            "functional", "turns", "state", "name"
        )
        assert str(inspect.signature(qccr.GameSpec)).endswith("name='game')")
        assert spec == qccr.GameSpec(game.functional, game.turns, game.state, "game")
        assert spec != qccr.GameSpec(game.functional, game.turns, game.state, "other")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: qccr.GhzMixture(3, 4),
            lambda: qstate.PlaneObservable("yz", 0.0),
            lambda: qccr.VisibilityModel(1.5),
        ],
        ids=["block-above-parties", "unknown-plane", "visibility-above-one"],
    )
    def test_post_init_refuses(self, build):
        with pytest.raises(ValueError):
            build()

    def test_post_init_may_set_fields(self):
        # __post_init__ stores normalized values through object.__setattr__
        assert qstate.PauliString("xz0").letters == "XZI"
        vertices = (qstate.PauliString("XI"), qstate.PauliString("ZI"))
        assert monogamy.AnticommGraph(vertices, [2, 1]).neighbor_masks == (2, 1)

    def test_module_imports_nothing(self):
        source = (Path(__file__).parent.parent / "src" / "bellpersist" / "_record.py").read_text()
        nodes = ast.walk(ast.parse(source))
        assert not [node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))]
