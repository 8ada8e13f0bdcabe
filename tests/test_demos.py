"""Every demo prints exactly the text recorded for it.

The demos are deterministic, so each one runs in-process and its
standard output is compared byte for byte.  encoder_synthesis is checked
in test_circuits.
"""
from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

EXPECTED = {
    "clique_search": """\
target distance 2: 32 vertices, 256 edges, maximum clique 6 (optimal=True)
  -> union code ((5, 2^2.5850, 2))
  translations: IIIII XIXII XIIXI IYXII XIIIX XXIII
target distance 3: 32 vertices, 16 edges, maximum clique 2 (optimal=True)
  -> union code ((5, 2^1.0000, 3))
  translations: IIIII ZIXXI
greedy restart search at d=2 found size 6
""",
    "five_qubit_union": """\
base: [[5, 0]] stabilizer state
union dimension: 2^2.5850 = 6
pairwise coset distances:
   [0, 2, 2, 2, 2, 2]
   [2, 0, 2, 2, 2, 2]
   [2, 2, 0, 2, 2, 2]
   [2, 2, 2, 0, 2, 2]
   [2, 2, 2, 2, 0, 2]
   [2, 2, 2, 2, 2, 0]
distance bound from coset enumeration: 2
true minimum distance: 2
error detection (Knill-Laflamme, 15 weight-1 errors): ok=True, worst deviation 3.61e-17
""",
    "length_64_families": """\
goethals  m=6: ((64, 2^30, 8)), 1024 translation cosets [classical-enumerator]
preparata m=6: ((64, 2^40, 6)), 1048576 translation cosets [classical-enumerator]
larger members (symbolic parameters):
  goethals  m=8: ((256, 2^210, 8))
  goethals  m=10: ((1024, 2^966, 8))
  preparata m=8: ((256, 2^224, 6))
  preparata m=10: ((1024, 2^984, 6))
stabilizer benchmark: enlargement of RM(3,6) in RM(4,6) gives [[64, 35, 6]] (translation weight floor 4 >= 4)
the 2^40-dimensional union code exceeds [[64, 35]] by a factor of 2^5
""",
    "nordstrom_robinson": """\
Nordstrom-Robinson: (16, 256, 6)
cosets of RM(1,4): 8
   0000000000000000
   0000001101010110
   0000010101100011
   0000011000111010
   0001000101111000
   0001001000011101
   0001010001001110
   0001011100100100
RM(1,4) inside NR: True; NR inside RM(2,4): True
distance distribution (enumerator route, d=6):
  weight  0: 1
  weight  6: 112
  weight  8: 30
  weight 10: 112
  weight 16: 1
""",
    "quaternary_certificates": """\
Kerdock over Z4: 4096 words, min Lee weight 28
its dual (Preparata side) by MacWilliams: min Lee weight 6
Goethals dual over Z4: 131072 words (enumerating...)
Goethals by MacWilliams: min Lee weight 8
Gray isometry spot check: Lee 28 == Hamming 28
""",
}


@pytest.mark.parametrize("name", list(EXPECTED))
def test_demo_output(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out == EXPECTED[name]
