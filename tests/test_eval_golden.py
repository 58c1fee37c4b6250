"""`hypstar eval --json` stdout against files kept in tests/data.

Each eval_<name>.json there is the stdout of the command in CASES, written
before the parameter triple held its prepared constants.  The nine corpus
rows are draws of the benchmark's eval corpus (complex a, b, c and z, |z|
between 0.76 and 0.8, parts rounded to four decimals); the last row's series
terminates, as a = -4.
"""

import json
from pathlib import Path

import pytest

from hypstar.cli import main

DATA = Path(__file__).parent / "data"
# name: (a, b, c, z), each as RE,IM
CASES = {
    "corpus_1": ("-3.4870,2.0656", "2.2445,2.6594", "-0.5862,3.6577", "0.5909,0.5249"),
    "corpus_2": ("0.9992,-0.6613", "-1.1040,-3.4135", "-3.5373,-2.0264", "0.3318,-0.7178"),
    "corpus_3": ("2.1051,-1.4717", "-1.6461,4.7812", "1.7050,0.5987", "0.5120,-0.5788"),
    "corpus_4": ("-4.2077,-1.8759", "-2.0845,3.8231", "-4.3274,2.4841", "-0.7580,-0.0907"),
    "corpus_5": ("4.3431,0.6540", "-2.6765,-3.5078", "4.1556,2.0433", "-0.0714,0.7892"),
    "corpus_6": ("0.7885,0.0883", "0.2430,0.4786", "-3.0445,-3.5338", "0.6631,0.4097"),
    "corpus_7": ("1.7253,0.6248", "-0.1604,3.9928", "-0.9951,0.3658", "-0.7548,0.1397"),
    "corpus_8": ("0.6019,1.2774", "-1.7263,-1.2528", "2.6807,1.9029", "0.3147,0.7220"),
    "corpus_9": ("1.6963,1.5845", "1.3548,-2.9316", "-0.2401,1.5804", "-0.6505,-0.4538"),
    "terminating": ("-4,0", "1.5,2.0", "2.5,-1.0", "0.55,0.58"),
}


def eval_args(name):
    a, b, c, z = CASES[name]
    return ["eval", "--a", a, "--b", b, "--c", c, "--z", z, "--json"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_eval_json_matches_the_kept_file(name, capsys):
    assert main(eval_args(name)) == 0
    out = capsys.readouterr().out
    assert out.encode() == (DATA / f"eval_{name}.json").read_bytes()
    assert set(json.loads(out)) == {"F", "F_prime", "f", "q"}
