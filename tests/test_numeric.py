from fractions import Fraction

import mpmath as mp

from equivlk.cyclo import CycloNumber
from equivlk.numeric import detect_rational, embed_complex


def test_embed_roots_of_unity():
    with mp.workprec(128):
        i = embed_complex(CycloNumber.zeta(4), 128)
        assert abs(i - mp.mpc(0, 1)) < mp.mpf(2) ** -120
        w = embed_complex(CycloNumber.zeta(3), 128)
        assert abs(w - mp.mpc(-0.5, mp.sqrt(3) / 2)) < mp.mpf(2) ** -120


def test_embed_is_ring_hom():
    x = CycloNumber.zeta(5) + 2
    y = CycloNumber.zeta(5, 3) - Fraction(1, 2)
    with mp.workprec(160):
        lhs = embed_complex(x * y, 160)
        rhs = embed_complex(x, 160) * embed_complex(y, 160)
        assert abs(lhs - rhs) < mp.mpf(2) ** -140


def test_detect_rational():
    with mp.workprec(96):
        assert detect_rational(mp.mpf(3) / 7) == Fraction(3, 7)
        assert detect_rational(-mp.mpf(1) / 8) == Fraction(-1, 8)
        assert detect_rational(mp.pi) is None
        assert detect_rational(mp.mpc(1, 1)) is None
