"""Workload ``exact-laws``: ring laws and the exact analysis mix.

Ops repeat the pattern ring, ring, analysis, where the analysis op cycles
through commutator-ideal membership (cp and cph_g), the quotient defect,
character multiplicativity (eval_character and composite_eval),
automorphism homomorphism checks, and Bochner-Fejer sections.  The laws
themselves are the reference.  Exact comparisons come with negative
controls (a product with one coefficient perturbed, an element with an
identity or lone-M term added) that must come out unequal or outside
the ideal, so an equality or membership test that always says yes fails.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction

from trisemi import (
    APPoint,
    AutomorphismSpec,
    BFSpec,
    BohrCharacter,
    DilationIndex,
    DiscPoint,
    Element,
    Frequency,
    IdealId,
    Scalar,
    TripleCharacter,
    adjoint,
    apply_automorphism,
    bochner_fejer,
    composite_eval,
    eval_character,
    in_ideal,
    mul,
    quotient_defect,
    section_weights,
    support_basis,
)

import gen
from ops import Op, expect, first_failure
from sizes import coeff_size

NUMERIC_TOL = 1e-9
PERTURB = Scalar.from_rational(Fraction(1, 997))
D1_WEIGHTS = {2: Fraction(1, 2), 3: Fraction(5, 6), 4: Fraction(23, 24)}


def _characters() -> list:
    finite1 = APPoint.finite(
        BohrCharacter({"s2": Fraction(1, 3), "ONE": Fraction(1, 5)}), Fraction(1, 2)
    )
    finite2 = APPoint.finite(BohrCharacter({"s3": Fraction(2, 7)}), Fraction(1, 3))
    chars = [TripleCharacter.d1(p) for p in (finite1, APPoint.x1(), APPoint.infinity())]
    chars += [TripleCharacter.d2(p) for p in (finite2, APPoint.x1(), APPoint.infinity())]
    chars += [TripleCharacter.d3(DiscPoint(w)) for w in (0.6, 0.25j, -0.2 + 0.1j, 0j)]
    chars += [TripleCharacter.d4(DiscPoint(w)) for w in (0.7, -0.5j, 0.3 + 0.3j, 0j)]
    chars.append(TripleCharacter.chi_inf("Z"))
    return chars


def _spec(rng: random.Random) -> AutomorphismSpec:
    return AutomorphismSpec(
        dil=DilationIndex.unit(Fraction(rng.randint(-2, 2), rng.choice((1, 2)))),
        mod_char=BohrCharacter(
            {b: Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for b in ("ONE", "s2")}
        ),
        shift_char=BohrCharacter(
            {b: Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for b in ("ONE", "s3")}
        ),
        v_angle=Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))),
    )


def _perturbed(x: Element) -> Element:
    """x with one coefficient scaled by 1 + 1/997 (the identity if x is 0)."""
    if x.is_zero():
        return Element.identity()
    key, coeff = next(iter(x.terms.items()))
    return x + Element({key: coeff * PERTURB})


class _Calls:
    """The traced entry points of one op."""

    def __init__(self, tr, table):
        self.tr = tr
        self.table = table

    def mul(self, x, y):
        out = self.tr.call("algebra.mul", mul, x, y)
        if self.tr.on:
            self.tr.add("algebra.product_terms", len(x.terms) * len(y.terms))
            for c in out.terms.values():
                self.tr.high("exactnum.coeff_terms_max", max(coeff_size(c)))
        return out

    def add(self, x, y):
        return self.tr.call("algebra.Element.add", operator.add, x, y)

    def eq(self, x, y):
        return self.tr.call("algebra.Element.eq", operator.eq, x, y)

    def adjoint(self, x):
        return self.tr.call("algebra.adjoint", adjoint, x)

    def in_ideal(self, x, ideal):
        return self.tr.call("ideals.in_ideal", in_ideal, x, ideal, self.table)

    def commutator(self, a, b):
        return self.mul(a, b) - self.mul(b, a)


class ExactLaws:
    name = "exact-laws"

    def __init__(self, seed: int):
        self.rng = random.Random(f"exact-laws:{seed}")
        self.table = gen.atom_table()
        self.chars = _characters()
        self.analysis = [
            self._cp_commutator,
            self._cph_commutator,
            self._quotient_defect,
            self._character,
            self._composite,
            self._automorphism,
            self._sections,
        ]

    def ops(self):
        i = 0
        while True:
            yield self._ring()
            yield self._ring()
            yield self.analysis[i % len(self.analysis)]()
            i += 1

    # ------------------------------------------------------------- ops

    def _ring(self) -> Op:
        x, y, z = (gen.element(self.rng, 5) for _ in range(3))

        def run(tr):
            c = _Calls(tr, self.table)
            lhs = c.mul(c.mul(x, y), z)
            rhs = c.mul(x, c.mul(y, z))
            return (
                c.eq(lhs, rhs),
                c.eq(c.mul(x, c.add(y, z)), c.add(c.mul(x, y), c.mul(x, z))),
                c.eq(c.mul(c.add(x, y), z), c.add(c.mul(x, z), c.mul(y, z))),
                c.eq(c.adjoint(c.mul(x, y)), c.mul(c.adjoint(y), c.adjoint(x))),
                c.eq(_perturbed(lhs), rhs),
            )

        def check(out):
            assoc, left, right, star, control = out
            return first_failure(
                expect(assoc, "associativity"),
                expect(left, "left distributivity"),
                expect(right, "right distributivity"),
                expect(star, "adjoint reverses products"),
                expect(not control, "perturbed product compared equal"),
            )

        return Op("ring", run, check)

    def _ideal_op(self, kind, make, ideal, control_term) -> Op:
        a, b = make(self.rng, 3), make(self.rng, 3)

        def run(tr):
            c = _Calls(tr, self.table)
            comm = c.commutator(a, b)
            return c.in_ideal(comm, ideal), c.in_ideal(c.add(comm, control_term), ideal)

        def check(out):
            member, control = out
            return first_failure(
                expect(member, f"commutator outside {kind}"),
                expect(not control, f"commutator plus a unit term inside {kind}"),
            )

        return Op(kind, run, check)

    def _cp_commutator(self) -> Op:
        return self._ideal_op("in_ideal.cp", gen.ap_element, IdealId.cp(), Element.identity())

    def _cph_commutator(self) -> Op:
        lone_m = Element.m(Frequency.rational(1))
        return self._ideal_op("in_ideal.cph_g", gen.z_element, IdealId.cph_g(), lone_m)

    def _quotient_defect(self) -> Op:
        x = gen.ap_element(self.rng, 4)

        def run(tr):
            c = _Calls(tr, self.table)
            qd = tr.call("ideals.quotient_defect", quotient_defect, x)
            return c.in_ideal(qd, IdealId.cp()), c.in_ideal(c.add(qd, Element.identity()), IdealId.cp())

        def check(out):
            member, control = out
            return first_failure(
                expect(member, "quotient defect outside cp"),
                expect(not control, "quotient defect plus identity inside cp"),
            )

        return Op("quotient_defect", run, check)

    def _multiplicative(self, kind, evaluate) -> Op:
        x, y = gen.z_element(self.rng, 3), gen.z_element(self.rng, 3)

        def run(tr):
            c = _Calls(tr, self.table)
            return evaluate(tr, c.mul(x, y)), evaluate(tr, x), evaluate(tr, y)

        def check(out):
            xy, vx, vy = out
            return expect(abs(xy - vx * vy) < NUMERIC_TOL, f"{kind} not multiplicative")

        return Op(kind, run, check)

    def _character(self) -> Op:
        chi = self.rng.choice(self.chars)
        return self._multiplicative(
            "eval_character",
            lambda tr, x: tr.call("characters.eval_character", eval_character, chi, x, self.table),
        )

    def _composite(self) -> Op:
        side = self.rng.choice(("m", "d"))
        return self._multiplicative(
            "composite_eval",
            lambda tr, x: tr.call("characters.composite_eval", composite_eval, x, side, None, self.table),
        )

    def _automorphism(self) -> Op:
        spec = _spec(self.rng)
        x, y = gen.z_element(self.rng, 3), gen.z_element(self.rng, 3)

        def run(tr):
            c = _Calls(tr, self.table)

            def auto(v):
                return tr.call("algebra.apply_automorphism", apply_automorphism, v, spec, self.table)

            lhs = auto(c.mul(x, y))
            rhs = c.mul(auto(x), auto(y))
            return c.eq(lhs, rhs), c.eq(_perturbed(lhs), rhs)

        def check(out):
            hom, control = out
            return first_failure(
                expect(hom, "automorphism not multiplicative"),
                expect(not control, "perturbed image compared equal"),
            )

        return Op("apply_automorphism", run, check)

    def _sections(self) -> Op:
        y = gen.ap_element(self.rng, 4)
        d1 = Element.d(Frequency.rational(1))

        def run(tr):
            m = max(2, len(support_basis(y, "translation")))
            spec = BFSpec(m, "translation")
            out = tr.call("approx.bochner_fejer", bochner_fejer, y, spec)
            weights = tr.call("approx.section_weights", section_weights, y, spec)
            known = {
                k: tr.call("approx.section_weights", section_weights, d1, BFSpec(k, "translation"))
                for k in D1_WEIGHTS
            }
            return out, weights, known

        def check(result):
            out, weights, known = result
            for k, w in D1_WEIGHTS.items():
                if list(known[k].values()) != [w]:
                    return expect(False, f"D(1) section weight at m={k}")
            if out.l1_norm(self.table) > y.l1_norm(self.table) + 1e-12:
                return expect(False, "section increased the l1 norm")
            for (lam, mu, t), coeff in y.terms.items():
                w = weights[mu]
                if not 0 <= w <= 1:
                    return expect(False, "section weight outside [0, 1]")
                if out.coefficient((lam, mu, t)) != coeff * Scalar.from_rational(w):
                    return expect(False, "section coefficient is not weight times input")
            return None

        return Op("bochner_fejer", run, check)
