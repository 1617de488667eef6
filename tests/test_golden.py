"""Byte-identity of the command-line outputs on a fixed grid.

The digests below are sha256 sums of simulate's JSON and CSV reports, the
exported plan files and verify's stdout, for every scheme under a worst
and a seeded random demand, plus one curves CSV.  They were recorded before
the plan representation was unified, so any change to a report, a plan
line or its order shows up here.
"""

import hashlib

import pytest

from tricache.cli import main

SYSTEMS = [("6", "1/2"), ("8", "1/2"), ("10", "3/10"), ("10", "1/2")]
SCHEMES = ["lap", "improved", "auto", "mn"]
DEMANDS = [("worst",), ("random", "--seed", "7")]

CURVES_ARGV = ["curves", "--K", "14,22,30", "--lambdas", "1/3,1/2,2/3"]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def simulate_outputs(tmp_path, capsys, K, lam, scheme, demand) -> dict[str, str]:
    """Digests of everything one grid point writes."""
    base = ["simulate", "--K", K, "--lambda", lam, "--scheme", scheme,
            "--demand", *demand]
    json_path, csv_path, plan_path = (tmp_path / n for n in ("r.json", "r.csv", "p.jsonl"))
    plan_args = [] if scheme == "mn" else ["--plan-out", str(plan_path)]
    assert main(base + ["--output", str(json_path)] + plan_args) == 0
    assert main(base + ["--format", "csv", "--output", str(csv_path)]) == 0
    out = {"json": sha(json_path.read_bytes()), "csv": sha(csv_path.read_bytes())}
    if plan_args:
        capsys.readouterr()
        assert main(["verify", "--plan", str(plan_path)]) == 0
        out["plan"] = sha(plan_path.read_bytes())
        out["verify"] = sha(capsys.readouterr().out.encode())
    return out


def grid_key(K, lam, scheme, demand) -> str:
    return f"K{K} lambda={lam} {scheme} {demand[0]}"


GOLDEN: dict[str, dict[str, str]] = {
    'K6 lambda=1/2 lap worst': {
        'json': '23c7cf39739141bae53133604df5da5ba84c72eb81aae5f0559dbf01ffbc626d',
        'csv': '2b7daef698ef3c331156478bf251ac5105e4fdae4ec74145a3022e4ddd3aaadb',
        'plan': '9920acfc844cd06fd37bab85a6bc795e36ebdb77158218401e0d0c2f9fdd2919',
        'verify': 'f63cead431fb811333f8524bb47c2e5b7091edd0e554c33c24f39388628ca491',
    },
    'K6 lambda=1/2 lap random': {
        'json': '23c7cf39739141bae53133604df5da5ba84c72eb81aae5f0559dbf01ffbc626d',
        'csv': '2b7daef698ef3c331156478bf251ac5105e4fdae4ec74145a3022e4ddd3aaadb',
        'plan': '80882a01aa70ca4d96915b46b8fb17fcdeadfcd6ca91c8c9cecff2474b60502f',
        'verify': 'f63cead431fb811333f8524bb47c2e5b7091edd0e554c33c24f39388628ca491',
    },
    'K6 lambda=1/2 improved worst': {
        'json': 'c82619ca19aac98c7b46140f1c705a8a8ea04eac8b1147657321a38852f168ab',
        'csv': '437c0e58038e417b508a7f2a720a01b200fdc842cbf911c333448237aa5caddc',
        'plan': 'c34250bdf1f1460809a0acd39d6311490975cc8888253d39b669656c3a974109',
        'verify': '0be57bcf3babb5a3cd38f6853690d0629a5452c4fcc432ec163033043567dd6d',
    },
    'K6 lambda=1/2 improved random': {
        'json': 'c82619ca19aac98c7b46140f1c705a8a8ea04eac8b1147657321a38852f168ab',
        'csv': '437c0e58038e417b508a7f2a720a01b200fdc842cbf911c333448237aa5caddc',
        'plan': 'a74385366041ae8ca56fe5723eb0461df7e9de2b2b03c5c9c4225466dce6dc39',
        'verify': '0be57bcf3babb5a3cd38f6853690d0629a5452c4fcc432ec163033043567dd6d',
    },
    'K6 lambda=1/2 auto worst': {
        'json': '98dcbffd87d3f81fd6b468e24b1de5e00db0b04e2327aba3b652241659b689d9',
        'csv': '46d23a82355502680eefd7333bfa3de8d4f1a9cd66e8a1ea3065960ef2a1fb64',
        'plan': '9920acfc844cd06fd37bab85a6bc795e36ebdb77158218401e0d0c2f9fdd2919',
        'verify': 'f63cead431fb811333f8524bb47c2e5b7091edd0e554c33c24f39388628ca491',
    },
    'K6 lambda=1/2 auto random': {
        'json': '98dcbffd87d3f81fd6b468e24b1de5e00db0b04e2327aba3b652241659b689d9',
        'csv': '46d23a82355502680eefd7333bfa3de8d4f1a9cd66e8a1ea3065960ef2a1fb64',
        'plan': '80882a01aa70ca4d96915b46b8fb17fcdeadfcd6ca91c8c9cecff2474b60502f',
        'verify': 'f63cead431fb811333f8524bb47c2e5b7091edd0e554c33c24f39388628ca491',
    },
    'K6 lambda=1/2 mn worst': {
        'json': '7d5438f14ecf2f8a0f5ef4ad67bc34aa4bd92d028f6add8f37f0134c40860fa2',
        'csv': 'b933eee2a90d0571146871e4de41fb720ddb3eb138503cef1871a132ff725ca6',
    },
    'K6 lambda=1/2 mn random': {
        'json': '7d5438f14ecf2f8a0f5ef4ad67bc34aa4bd92d028f6add8f37f0134c40860fa2',
        'csv': 'b933eee2a90d0571146871e4de41fb720ddb3eb138503cef1871a132ff725ca6',
    },
    'K8 lambda=1/2 lap worst': {
        'json': 'b4805af29b35b23015ea9872a2f98a592de91b7d96e0540405e38993df12d158',
        'csv': '4294d131962a5f53546dd7ec968564477b1b908a63369d173415c39a2d3531d0',
        'plan': '10e6478d2ab44a0bc495cf7b6242057aa767ac506798ed545a5fb67653d37b2f',
        'verify': '544a649f0f80a4f36c3f2acaa11430de52815b97d2ca7901354ec0d6536c0bcd',
    },
    'K8 lambda=1/2 lap random': {
        'json': 'b4805af29b35b23015ea9872a2f98a592de91b7d96e0540405e38993df12d158',
        'csv': '4294d131962a5f53546dd7ec968564477b1b908a63369d173415c39a2d3531d0',
        'plan': '49380c5fbba9ca551a28fb4969ed14b3c6f6b97c9e8e693cb65f9ddc60681a7d',
        'verify': '544a649f0f80a4f36c3f2acaa11430de52815b97d2ca7901354ec0d6536c0bcd',
    },
    'K8 lambda=1/2 improved worst': {
        'json': 'a896b9be7297240626f0008c7f9951814987f377299ee014bb3b8143eda134be',
        'csv': 'f4f44024e2955dbceaa686279b296a5e47a00b6949c32de7d071f0a3a78a9985',
        'plan': '20adb3b49135a1f4132b60b49865407caec37f066910ea7bf5c289e963c321bb',
        'verify': '544a649f0f80a4f36c3f2acaa11430de52815b97d2ca7901354ec0d6536c0bcd',
    },
    'K8 lambda=1/2 improved random': {
        'json': 'a896b9be7297240626f0008c7f9951814987f377299ee014bb3b8143eda134be',
        'csv': 'f4f44024e2955dbceaa686279b296a5e47a00b6949c32de7d071f0a3a78a9985',
        'plan': 'a3fdb66c7e4e38e80300faa46afdfb070d4af5e4e3a969102fd584c70fad3466',
        'verify': '544a649f0f80a4f36c3f2acaa11430de52815b97d2ca7901354ec0d6536c0bcd',
    },
    'K8 lambda=1/2 auto worst': {
        'json': '7f186f6442d06af0cfc0fcc4d6846c58aa3ef15de1b7b7a9b514b436ce2ac614',
        'csv': '82d35e1fd1af40c0525430cc7b9a9c2b90e1ec0e05f5afb115d49965634f2215',
        'plan': 'e9905eb9237474d814e6bceaf046812ca11c2f8cd6dc436ba7b1e3676f9db367',
        'verify': '544a649f0f80a4f36c3f2acaa11430de52815b97d2ca7901354ec0d6536c0bcd',
    },
    'K8 lambda=1/2 auto random': {
        'json': '7f186f6442d06af0cfc0fcc4d6846c58aa3ef15de1b7b7a9b514b436ce2ac614',
        'csv': '82d35e1fd1af40c0525430cc7b9a9c2b90e1ec0e05f5afb115d49965634f2215',
        'plan': '08378433888315df5d7cf29f3cfedcca31f1c16f79828b1cc208d6c6b44a6d73',
        'verify': '544a649f0f80a4f36c3f2acaa11430de52815b97d2ca7901354ec0d6536c0bcd',
    },
    'K8 lambda=1/2 mn worst': {
        'json': '46eb5f0036eb9534fc4e6e8b0abffc18a23257dfb2ce922d54b419f9593e3755',
        'csv': 'bb9fb7b829501ce7d2b074ea87f727e56625588225b2db9ce41ef6b0e1f2592a',
    },
    'K8 lambda=1/2 mn random': {
        'json': '46eb5f0036eb9534fc4e6e8b0abffc18a23257dfb2ce922d54b419f9593e3755',
        'csv': 'bb9fb7b829501ce7d2b074ea87f727e56625588225b2db9ce41ef6b0e1f2592a',
    },
    'K10 lambda=3/10 lap worst': {
        'json': '0aa97da06bdf18139b3f2cee54d0102011b52825eb0c86fa3c34f6658fadf36f',
        'csv': '6589fa0e947fa501ab3c55201b00005768177e971b93579830bedc66750d615f',
        'plan': 'e92858b1c6566972128afb308184fe615206c065b9c1a16830e32134231407f4',
        'verify': '859d31f93ccd26c7997c285ce763fa04a56e483e2d3c8d8c3c1465059ff48ccd',
    },
    'K10 lambda=3/10 lap random': {
        'json': '0aa97da06bdf18139b3f2cee54d0102011b52825eb0c86fa3c34f6658fadf36f',
        'csv': '6589fa0e947fa501ab3c55201b00005768177e971b93579830bedc66750d615f',
        'plan': '0e1c4fb8cb8c47336ddde762121c7f3a270d5f79f87cc9ca3bf45304c17a9ef6',
        'verify': '859d31f93ccd26c7997c285ce763fa04a56e483e2d3c8d8c3c1465059ff48ccd',
    },
    'K10 lambda=3/10 improved worst': {
        'json': '9621a439ff638b928be3fec48483f913a182a9b168791b4a0d20e01b0d2f2f53',
        'csv': 'f11828fc03856212735656e45e85d48b4beae173973253c39fac562ecd2c19c7',
        'plan': '687a796a7703c7b85ac51e51f09c7df6f8c112b28f7906cf5f311034d94b596c',
        'verify': '6455a0947592d300502210ce9694fbce8d77565bc7cdfb93627976803d5dd6fe',
    },
    'K10 lambda=3/10 improved random': {
        'json': '9621a439ff638b928be3fec48483f913a182a9b168791b4a0d20e01b0d2f2f53',
        'csv': 'f11828fc03856212735656e45e85d48b4beae173973253c39fac562ecd2c19c7',
        'plan': '20099de031d486eaf1d8ab26724cc58fce46520ca848a54c4dc954afc409c811',
        'verify': '6455a0947592d300502210ce9694fbce8d77565bc7cdfb93627976803d5dd6fe',
    },
    'K10 lambda=3/10 auto worst': {
        'json': '45512371f0bc61ca63cba8de9bb7f8d49a154523aa0c337e354598871f3fc8a0',
        'csv': 'f0015fff58163f6b55e73e85283886cf6d67ad493a208f291f0e1911e174c0c8',
        'plan': 'e92858b1c6566972128afb308184fe615206c065b9c1a16830e32134231407f4',
        'verify': '859d31f93ccd26c7997c285ce763fa04a56e483e2d3c8d8c3c1465059ff48ccd',
    },
    'K10 lambda=3/10 auto random': {
        'json': '45512371f0bc61ca63cba8de9bb7f8d49a154523aa0c337e354598871f3fc8a0',
        'csv': 'f0015fff58163f6b55e73e85283886cf6d67ad493a208f291f0e1911e174c0c8',
        'plan': '0e1c4fb8cb8c47336ddde762121c7f3a270d5f79f87cc9ca3bf45304c17a9ef6',
        'verify': '859d31f93ccd26c7997c285ce763fa04a56e483e2d3c8d8c3c1465059ff48ccd',
    },
    'K10 lambda=3/10 mn worst': {
        'json': 'd7c6157413f17381d9610976d84b4b44b916584074ccdb53e9d990ea36a82e7d',
        'csv': '22a4a260e2a8071648c596854dbbb74fd42f6ee99a912aa59418e72175dd86c1',
    },
    'K10 lambda=3/10 mn random': {
        'json': 'd7c6157413f17381d9610976d84b4b44b916584074ccdb53e9d990ea36a82e7d',
        'csv': '22a4a260e2a8071648c596854dbbb74fd42f6ee99a912aa59418e72175dd86c1',
    },
    'K10 lambda=1/2 lap worst': {
        'json': 'd34c4eb3a1931af85fa1591420cde955383f47af0a58e5b32f5d08b35e094434',
        'csv': '2b1b8903aec6da61801ebb20bfb662db71dffb69898066b00679f234bbd0da31',
        'plan': 'd9821f891cbb70c4a1a39409072b8e133b2d71aff8cbda2288962876ab3b4854',
        'verify': 'cec36822b621b40888f43bf97025d8928d3d57a378df811b5794ec689416ce66',
    },
    'K10 lambda=1/2 lap random': {
        'json': 'd34c4eb3a1931af85fa1591420cde955383f47af0a58e5b32f5d08b35e094434',
        'csv': '2b1b8903aec6da61801ebb20bfb662db71dffb69898066b00679f234bbd0da31',
        'plan': '4f0ec9e8c939d00852b879f20997c65ba608b223463aaa53b4a63719437ade55',
        'verify': 'cec36822b621b40888f43bf97025d8928d3d57a378df811b5794ec689416ce66',
    },
    'K10 lambda=1/2 improved worst': {
        'json': '8f2b45cbf6632b77ded3b6d107954eaa8a39d2789aba5becb1ecf12d662d3abf',
        'csv': '639a551c6ffde9f2be6f1b084ecde0fda8fc9a3ef0c65e737ec4aa6c486afe8e',
        'plan': 'a4dce1b2c00866035e00ca02b4078f926e529e88d4386aa2b908d2dc1247cf44',
        'verify': '138139ba99d15392ccd253dcb634724ac467cadd944fc8286410646743d3aae9',
    },
    'K10 lambda=1/2 improved random': {
        'json': '8f2b45cbf6632b77ded3b6d107954eaa8a39d2789aba5becb1ecf12d662d3abf',
        'csv': '639a551c6ffde9f2be6f1b084ecde0fda8fc9a3ef0c65e737ec4aa6c486afe8e',
        'plan': '62611869500968310b3975644bcf86a526862a20474fdbdac33cc10b517bc50d',
        'verify': '138139ba99d15392ccd253dcb634724ac467cadd944fc8286410646743d3aae9',
    },
    'K10 lambda=1/2 auto worst': {
        'json': '7d7ae0a720c6774596ebe564dc0f7a65e8a50eda55220a80684068eb7277b0b9',
        'csv': 'f1a5547ee233226049b05cec2d5d3a1d96a85c1df4fda9f948ed5f79925d58d1',
        'plan': 'd9821f891cbb70c4a1a39409072b8e133b2d71aff8cbda2288962876ab3b4854',
        'verify': 'cec36822b621b40888f43bf97025d8928d3d57a378df811b5794ec689416ce66',
    },
    'K10 lambda=1/2 auto random': {
        'json': '7d7ae0a720c6774596ebe564dc0f7a65e8a50eda55220a80684068eb7277b0b9',
        'csv': 'f1a5547ee233226049b05cec2d5d3a1d96a85c1df4fda9f948ed5f79925d58d1',
        'plan': '4f0ec9e8c939d00852b879f20997c65ba608b223463aaa53b4a63719437ade55',
        'verify': 'cec36822b621b40888f43bf97025d8928d3d57a378df811b5794ec689416ce66',
    },
    'K10 lambda=1/2 mn worst': {
        'json': 'ec42324200d8d141d1e4c65c4c99b48d5762ad9c6c6b62c0be142a334e90ce5b',
        'csv': 'd96d5e45247cdf252ffc9e6084b942bc08f9592654a7005bf6192f6b0b526bfd',
    },
    'K10 lambda=1/2 mn random': {
        'json': 'ec42324200d8d141d1e4c65c4c99b48d5762ad9c6c6b62c0be142a334e90ce5b',
        'csv': 'd96d5e45247cdf252ffc9e6084b942bc08f9592654a7005bf6192f6b0b526bfd',
    },
}

CURVES_GOLDEN = '710d94620c9811d161779775c271467ed469c798340341356c1a0c94cbcfc5d5'


@pytest.mark.parametrize("K, lam", SYSTEMS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("demand", DEMANDS, ids=lambda d: d[0])
def test_simulate_outputs_are_golden(tmp_path, capsys, K, lam, scheme, demand):
    got = simulate_outputs(tmp_path, capsys, K, lam, scheme, demand)
    assert got == GOLDEN[grid_key(K, lam, scheme, demand)]


def test_curves_csv_is_golden(tmp_path):
    path = tmp_path / "curves.csv"
    assert main(CURVES_ARGV + ["--output", str(path)]) == 0
    assert sha(path.read_bytes()) == CURVES_GOLDEN
