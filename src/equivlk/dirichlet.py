"""Dirichlet characters with exact cyclotomic values.

A character mod f is stored by its exponents on a fixed generating set of
(Z/f)^*.  Moduli stay small (f <= 1000), so discrete logs are brute-force
tables.  Values are CycloNumber roots of unity, zero off the units: chi(a) =
zeta_L^k(a) with L the exponent of (Z/f)^*, each root of unity built once
per process.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import factorize, primitive_root
from .cyclo import CycloNumber, _divisors

MAX_MODULUS = 1000

__all__ = ["DirichletChar", "enumerate_characters", "unit_group_structure"]


def _crt_lift(residues_moduli, f):
    x, m = 0, 1
    for r, mod in residues_moduli:
        t = (r - x) * pow(m, -1, mod) % mod
        x += m * t
        m *= mod
    assert m == f
    return x % f


@lru_cache(maxsize=None)
def unit_group_structure(f: int):
    """(gens, orders, dlog) for (Z/f)^*: dlog maps a unit to its exponent
    tuple, with a == prod gens[i]^dlog(a)[i] mod f."""
    if f > MAX_MODULUS:
        raise ValueError(f"modulus {f} exceeds bound {MAX_MODULUS}")
    if f < 1:
        raise ValueError("modulus must be positive")
    fact = factorize(f)
    local = []  # (p^e, [(gen mod p^e, order)])
    for p, e in fact:
        pe = p ** e
        if p == 2:
            if e == 1:
                local.append((pe, []))
            elif e == 2:
                local.append((pe, [(3, 2)]))
            else:
                local.append((pe, [(pe - 1, 2), (5, 2 ** (e - 2))]))
        else:
            local.append((pe, [(primitive_root(pe), pe // p * (p - 1))]))
    gens, orders = [], []
    for pe, gen_list in local:
        for g, d in gen_list:
            lifted = _crt_lift([(g if q == pe else 1, q) for q, _ in local], f)
            gens.append(lifted)
            orders.append(d)
    # brute-force discrete log table over the whole unit group
    table = {}
    idx = [0] * len(gens)
    total = math.prod(orders) if orders else 1

    def value_of(exps):
        v = 1
        for g, k in zip(gens, exps):
            v = v * pow(g, k, f) % f
        return v

    def gen_tuples(i):
        if i == len(gens):
            yield ()
            return
        for rest in gen_tuples(i + 1):
            for k in range(orders[i]):
                yield (k,) + rest

    for exps in gen_tuples(0):
        table[value_of(exps)] = exps
    if len(table) != total:
        raise RuntimeError("generators do not generate the unit group")
    return tuple(gens), tuple(orders), table


class DirichletChar:
    """chi mod f with chi(gens[i]) = zeta_{orders[i]}^{exps[i]}."""

    __slots__ = ("modulus", "exps", "_root_exps", "_values", "_conductor")

    def __init__(self, modulus: int, exps):
        gens, orders, _ = unit_group_structure(modulus)
        exps = tuple(k % d for k, d in zip(exps, orders))
        if len(exps) != len(gens):
            raise ValueError("wrong number of exponents")
        self.modulus = modulus
        self.exps = exps
        self._root_exps = None
        self._values = None
        self._conductor = None

    @staticmethod
    def trivial(modulus: int) -> "DirichletChar":
        gens, orders, _ = unit_group_structure(modulus)
        return DirichletChar(modulus, (0,) * len(gens))

    def root_exponents(self):
        """(L, ks): chi(a) = zeta_L^ks[a % f] on the units and ks[a % f] is
        None off them, where L is the exponent of (Z/f)^*."""
        if self._root_exps is None:
            f = self.modulus
            _, orders, dlog = unit_group_structure(f)
            L = math.lcm(*orders)
            ks = [None] * f
            for a, exps in dlog.items():
                ks[a % f] = sum(k * e * (L // d) for k, e, d
                                in zip(self.exps, exps, orders)) % L
            self._root_exps = (L, tuple(ks))
        return self._root_exps

    def _value_table(self):
        if self._values is None:
            L, ks = self.root_exponents()
            zero = CycloNumber.zero()
            self._values = tuple(zero if k is None else _root_of_unity(L, k)
                                 for k in ks)
        return self._values

    def value(self, a: int) -> CycloNumber:
        return self._value_table()[a % self.modulus]

    @property
    def order(self) -> int:
        _, orders, _ = unit_group_structure(self.modulus)
        n = 1
        for k, d in zip(self.exps, orders):
            if k:
                n = math.lcm(n, d // math.gcd(d, k))
        return n

    @property
    def is_trivial(self) -> bool:
        return all(k == 0 for k in self.exps)

    @property
    def is_odd(self) -> bool:
        """True when chi(-1) = -1."""
        if self.modulus <= 2:
            return False
        return self.value(self.modulus - 1) == CycloNumber.from_rational(-1)

    @property
    def conductor(self) -> int:
        if self._conductor is None:
            f = self.modulus
            one = CycloNumber.one()
            best = f
            for d in _divisors(f):
                if all(self.value(a) == one
                       for a in range(1, f + 1)
                       if a % d == 1 % d and math.gcd(a, f) == 1):
                    best = d
                    break
            self._conductor = best
        return self._conductor

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def conjugate(self) -> "DirichletChar":
        return DirichletChar(self.modulus, tuple(-k for k in self.exps))

    def __mul__(self, other: "DirichletChar") -> "DirichletChar":
        if self.modulus != other.modulus:
            raise ValueError("character moduli differ")
        return DirichletChar(self.modulus, tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __eq__(self, other):
        if not isinstance(other, DirichletChar):
            return NotImplemented
        return self.modulus == other.modulus and self.exps == other.exps

    def __hash__(self):
        return hash((self.modulus, self.exps))

    def label(self) -> str:
        return f"chi_{self.modulus}{list(self.exps)}"

    def to_json(self) -> dict:
        return {"modulus": self.modulus, "exponents": list(self.exps),
                "conductor": self.conductor, "order": self.order,
                "odd": self.is_odd}

    def __repr__(self):
        return self.label()


@lru_cache(maxsize=None)
def _root_of_unity(n: int, k: int) -> CycloNumber:
    """zeta_n^k, normalized once per process and shared by every table."""
    return CycloNumber.zeta(n, k)


def enumerate_characters(modulus: int) -> list[DirichletChar]:
    """All characters mod `modulus`, trivial character first."""
    gens, orders, _ = unit_group_structure(modulus)
    chars = []

    def rec(i, acc):
        if i == len(orders):
            chars.append(DirichletChar(modulus, tuple(acc)))
            return
        for k in range(orders[i]):
            rec(i + 1, acc + [k])

    rec(0, [])
    chars.sort(key=lambda c: (not c.is_trivial, c.order, c.exps))
    return chars
