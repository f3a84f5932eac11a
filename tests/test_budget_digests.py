"""Frozen shuffle budgets: sha256 of (per_task, completion_bounds) per set.

Each digest keeps the first 16 hex digits of the sha256 of the sorted
budget and bound items, or the word "refused" when `compute_budgets`
refuses the set.  They were taken from the greedy that re-certified the
whole vector after every one-tick raise.  Any change to the certificates
or to the greedy's order that moves one budget or one proven bound
changes a digest here.  The cases cover C3's 100 sets, a seeded batch of
3 to 8 tasks up to U = 1 (some refused), constrained deadlines with
sporadic tasks, and sets whose budgets reach the D - C cap.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from schedlab.shuffle import compute_budgets
from schedlab.tasks import SPORADIC, Task, TaskSet, generate_taskset

from test_acceptance import make_sets

BATCH_POOL = (10, 20, 25, 40, 50, 100, 200)


def batch(count, seed):
    """Seeded sets: n cycles through 3..8, U drawn from [0.3, 1.0]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = 3 + len(out) % 6
        u = round(rng.uniform(0.3, 1.0), 4)
        try:
            out.append(generate_taskset(n, u, BATCH_POOL, seed=rng.getrandbits(32),
                                        tol=0.02))
        except ValueError:
            continue  # lattice miss near the target; redraw
    return out


def constrained(ts, rng):
    """Deadlines drawn from [max(C, 3T/4), T], odd ids sporadic with
    variable demand."""
    return TaskSet(tuple(
        replace(t, D=rng.randint(max(t.C, 3 * t.T // 4), t.T),
                kind=SPORADIC if t.id % 2 else t.kind,
                bcet=max(1, t.C // 2) if t.id % 2 else None)
        for t in ts), ts.name)


def _capped():
    # Light sets: every raise certifies until the D - C cap stops it.
    return {
        "cap/single": TaskSet((Task(id=1, C=2, T=9, priority=1),)),
        "cap/light_pair": TaskSet((Task(id=1, C=1, T=50, priority=1),
                                   Task(id=2, C=1, T=100, D=40, priority=2))),
        "cap/light_trio": TaskSet((Task(id=1, C=1, T=20, D=6, priority=1),
                                   Task(id=2, C=2, T=40, D=12, priority=2),
                                   Task(id=3, C=1, T=200, D=30, priority=3))),
    }


def build_cases():
    cases = {f"c3/{i}": ts for i, ts in enumerate(
        make_sets(100, seed=303, n_range=(3, 5), u_range=(0.30, 0.65)))}
    cases.update({f"batch/{i}": ts for i, ts in enumerate(batch(120, 4711))})
    rng = random.Random(917)
    cases.update({f"constrained/{i}": constrained(ts, rng)
                  for i, ts in enumerate(batch(60, 918))})
    cases.update(_capped())
    return cases


CASES = build_cases()


def digest(ts):
    try:
        b = compute_budgets(ts)
    except ValueError:
        return "refused"
    text = repr((sorted(b.per_task.items()), sorted(b.completion_bounds.items())))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


DIGESTS = {
    "batch/0": "48cc610c8e000e3b",
    "batch/1": "19b33780b3acbd76",
    "batch/10": "f8ac9112eda7fc20",
    "batch/100": "4f4f0fed9574eacc",
    "batch/101": "fedd6e858e3babfa",
    "batch/102": "125e4dfc1687026b",
    "batch/103": "2cef864f9b202821",
    "batch/104": "ac36ae279afc3793",
    "batch/105": "363a02745f0629c8",
    "batch/106": "03b83f1bcb0d712c",
    "batch/107": "1aca32bc45c82da0",
    "batch/108": "d6a0c3783a164b33",
    "batch/109": "9fcbf37485ac18dd",
    "batch/11": "7ffc18f921438d6b",
    "batch/110": "2416b87d64827315",
    "batch/111": "7cae374068f169cb",
    "batch/112": "23a7648b0b405afb",
    "batch/113": "7061013f33db3685",
    "batch/114": "e90725ebe17a4250",
    "batch/115": "a72b30bd13c6a5fb",
    "batch/116": "a39a557cfbbe0f0c",
    "batch/117": "56e58216cc0795da",
    "batch/118": "ad8c0349c0a19c18",
    "batch/119": "9978c4c9b21f0d13",
    "batch/12": "481a43f52e5e1de5",
    "batch/13": "6071ca24e5d721d9",
    "batch/14": "def815ca02530208",
    "batch/15": "d113ed1cf97a09f5",
    "batch/16": "51119cca1c63a5ed",
    "batch/17": "3ae2d67ba5b973c1",
    "batch/18": "546e63958b6d8f3c",
    "batch/19": "f8d7dfbacb6d10c1",
    "batch/2": "a21eb1ff294e1e10",
    "batch/20": "refused",
    "batch/21": "37ffa6005422300e",
    "batch/22": "74174cd4eb6b4da6",
    "batch/23": "9ff7760afd058566",
    "batch/24": "20731a5ec0f13398",
    "batch/25": "35a74774f949485a",
    "batch/26": "5b59ab7cbe0365eb",
    "batch/27": "a54cb8b7761bbf6d",
    "batch/28": "d50e5f37a4d49542",
    "batch/29": "94a93ff6832eff7f",
    "batch/3": "4385c11547691eb3",
    "batch/30": "4a21a91bfbc8e04e",
    "batch/31": "63578eb04ecb5c36",
    "batch/32": "043cd15894cf3dbc",
    "batch/33": "eec1510cefc70931",
    "batch/34": "0174802b8d56ac16",
    "batch/35": "59f910d2c805d7b1",
    "batch/36": "0626a35bfe0bf71b",
    "batch/37": "b216b9fa6333d95a",
    "batch/38": "e1cc3a3f04e95052",
    "batch/39": "bdaa6aa30f2ec405",
    "batch/4": "fe3e1d541f945463",
    "batch/40": "056d22100cd0fee1",
    "batch/41": "44fb22b83b272ca0",
    "batch/42": "61bf7d12459b27a4",
    "batch/43": "b3c8d1af18c94da0",
    "batch/44": "12c3fefbb8ae3ca8",
    "batch/45": "48be0627603c449c",
    "batch/46": "2ccbafc33a65ac2a",
    "batch/47": "4aaee5595b873fb5",
    "batch/48": "bbe975e0beb654ff",
    "batch/49": "425e30be0ca4b92c",
    "batch/5": "21f4a61d28495ccb",
    "batch/50": "3dd8c8b566765b34",
    "batch/51": "3c53e47404bde6d2",
    "batch/52": "156193621a39dc7a",
    "batch/53": "08e675dc49bb0ec9",
    "batch/54": "9509f5c399f29f32",
    "batch/55": "e7cdea442322cf11",
    "batch/56": "4515eeece04201c3",
    "batch/57": "3648547ae098cbf5",
    "batch/58": "6d9070256de1bbc6",
    "batch/59": "ace24fd436c73d30",
    "batch/6": "8e97acf6b53cb038",
    "batch/60": "64924b6121172889",
    "batch/61": "138aa7d34b998ecc",
    "batch/62": "7785a6662e358fb2",
    "batch/63": "9e8e9055a7857c14",
    "batch/64": "e2427eb7f365db81",
    "batch/65": "a5ab889acbacc1f5",
    "batch/66": "d6ae00527ef0edd7",
    "batch/67": "c93e39000c78d92b",
    "batch/68": "046de33652048f8b",
    "batch/69": "0d0f5a5aded27cc9",
    "batch/7": "refused",
    "batch/70": "6285072eff8c50e9",
    "batch/71": "d42bdd4b4efe182c",
    "batch/72": "273f330e302255c9",
    "batch/73": "076f8d692405ba98",
    "batch/74": "64a8fba484def862",
    "batch/75": "a92fcdc83723bc29",
    "batch/76": "e10661be5846078e",
    "batch/77": "b53982d4b16efbdc",
    "batch/78": "d97f082df68fe1d5",
    "batch/79": "44aaf8d9d10588ea",
    "batch/8": "0a241601293a31fd",
    "batch/80": "b7e12f59eb1af6b3",
    "batch/81": "15daee16c772315f",
    "batch/82": "6dd50951994001b8",
    "batch/83": "24d46e38b1361549",
    "batch/84": "0733e6374ad18c82",
    "batch/85": "3b648cc6d4829915",
    "batch/86": "a4c4340fc746fe83",
    "batch/87": "6ff30f27ad54a87e",
    "batch/88": "3074c1309513e0b4",
    "batch/89": "a49278e691027caa",
    "batch/9": "7b030b5ab766466d",
    "batch/90": "f708999a0ac6d515",
    "batch/91": "1abda8c3220b45da",
    "batch/92": "d51c707377db7ef3",
    "batch/93": "faef8161b5f1878f",
    "batch/94": "55a63f9ce96413bd",
    "batch/95": "d1450fe67b5607fd",
    "batch/96": "a03c94ade4ab6ba0",
    "batch/97": "81ea2b65e2fc953e",
    "batch/98": "b23674476b95ef4e",
    "batch/99": "a540a982ae6e7240",
    "c3/0": "eba61591b459c1f8",
    "c3/1": "78eeb9f6b68cc1de",
    "c3/10": "1b29060c3bb05f7b",
    "c3/11": "2949eb3dd27f7b7d",
    "c3/12": "4db30394880c8ce9",
    "c3/13": "2d2e20f059c29df3",
    "c3/14": "d512d645bc34b134",
    "c3/15": "e205495e02597af4",
    "c3/16": "7a417877380c5e17",
    "c3/17": "ffc2b85cdce9e8ba",
    "c3/18": "e76aef2098164ca4",
    "c3/19": "43337968a5bf2844",
    "c3/2": "736dc5cb82fdfc56",
    "c3/20": "c15efd4a0d9a4245",
    "c3/21": "f421f31c279921f8",
    "c3/22": "9a79e040c3b97190",
    "c3/23": "c17d7424db7f1327",
    "c3/24": "9080b33172a4aee2",
    "c3/25": "2ee2444806d99301",
    "c3/26": "bf672f6adb702128",
    "c3/27": "7588ff48eb9c0e94",
    "c3/28": "53da40fa8171ffa1",
    "c3/29": "c924700e65f74d80",
    "c3/3": "7aa3073c4fd0a44f",
    "c3/30": "5164d5d3faddf119",
    "c3/31": "4e03162fe05a043a",
    "c3/32": "62183f8bb20599e1",
    "c3/33": "27fc3643770d4eba",
    "c3/34": "da518434ab4cb2ae",
    "c3/35": "04a8504193301d5e",
    "c3/36": "b6d9d08a7545ee09",
    "c3/37": "dd94ac81f68edc97",
    "c3/38": "5a77bb1433ffb7c1",
    "c3/39": "cdbc508b73a62b4d",
    "c3/4": "0b956e6dae844cd7",
    "c3/40": "538667ea25c3fd1e",
    "c3/41": "62b007d725ffd5ae",
    "c3/42": "ac8c53356ae87040",
    "c3/43": "c17d7424db7f1327",
    "c3/44": "ec60b1431fe6e713",
    "c3/45": "1d164298355fe5e8",
    "c3/46": "afbcfbc473f1de58",
    "c3/47": "514c304deab06c77",
    "c3/48": "043e0148e703b5be",
    "c3/49": "cfd1806fba19af94",
    "c3/5": "c5736f647a4a6dbb",
    "c3/50": "c7dc9dae96a1d485",
    "c3/51": "a0d03320a508bd1e",
    "c3/52": "165d077fb783b273",
    "c3/53": "6ab554a3741a2c29",
    "c3/54": "221be06ec257b2e9",
    "c3/55": "2f0dc33399430c11",
    "c3/56": "0b930f5ffa1017f8",
    "c3/57": "24acd0792a616858",
    "c3/58": "e47a1341a578cd23",
    "c3/59": "c761038728df3c40",
    "c3/6": "33b99e4d6214c439",
    "c3/60": "3b93db98580c934e",
    "c3/61": "d44833a231ede277",
    "c3/62": "9df47d349aedd814",
    "c3/63": "08d8a052f625f2ba",
    "c3/64": "9bbde53310a1609f",
    "c3/65": "bd9d7d8037058d42",
    "c3/66": "5149fa73d7b92784",
    "c3/67": "0ffd25b95840d026",
    "c3/68": "8b3430435191cf06",
    "c3/69": "1c54d9b623c5f25f",
    "c3/7": "42c134f592c90145",
    "c3/70": "a620efc562c700b4",
    "c3/71": "dde55282b405af76",
    "c3/72": "20fe39311930d720",
    "c3/73": "4787eeec779e286b",
    "c3/74": "2f97939167a201a1",
    "c3/75": "cea0570ff6118255",
    "c3/76": "3267d330ded79c60",
    "c3/77": "d63007eb0153a1fc",
    "c3/78": "ba8cafd1aaedbc4a",
    "c3/79": "f6384e113d062ce7",
    "c3/8": "e4ff06efd48e8039",
    "c3/80": "41e06cce920044cb",
    "c3/81": "b5be3248b0a1b2a1",
    "c3/82": "6ff84758c6b4f964",
    "c3/83": "206aee31322dc2d9",
    "c3/84": "c1be2f68c1ac2471",
    "c3/85": "ab65bebdeb893f63",
    "c3/86": "85d1668342171c79",
    "c3/87": "8e9332e781681566",
    "c3/88": "09fc4e805c6cff89",
    "c3/89": "9df47d349aedd814",
    "c3/9": "44646cd5f3cd52d6",
    "c3/90": "8dad32eb45a8b936",
    "c3/91": "52883fe9cc417836",
    "c3/92": "7c7a66a0711d0755",
    "c3/93": "f1460c4cbcd2fbb2",
    "c3/94": "c45c5c3f87df97c9",
    "c3/95": "1372a9b859bc1fe0",
    "c3/96": "3b08991c095fadc3",
    "c3/97": "9cd8a3088f07576e",
    "c3/98": "9fefd79a41ed0e7e",
    "c3/99": "5ba05a392674c2f1",
    "cap/light_pair": "b2d9058c336b188b",
    "cap/light_trio": "118d5c2c31e015e3",
    "cap/single": "274f2d932df24293",
    "constrained/0": "4f76621b631d2a9a",
    "constrained/1": "0a58c283fbcbcd71",
    "constrained/10": "bff10d1beccac985",
    "constrained/11": "refused",
    "constrained/12": "9301efd3e58ecf7a",
    "constrained/13": "ea98b0a5e76d81fc",
    "constrained/14": "6fe4c6b23960883c",
    "constrained/15": "1f9b1756ac778ce9",
    "constrained/16": "38296e236fb50ce2",
    "constrained/17": "16faca67e5cc98ba",
    "constrained/18": "refused",
    "constrained/19": "abaa1ecc7010bb9e",
    "constrained/2": "8dc6653fdedd94a5",
    "constrained/20": "9a12e9c0fc07dee0",
    "constrained/21": "e2215376cb157cc4",
    "constrained/22": "a5257816c27595f7",
    "constrained/23": "refused",
    "constrained/24": "b4bab89cdfabc850",
    "constrained/25": "b4e541211f7dc4eb",
    "constrained/26": "75b7a64b787fdd46",
    "constrained/27": "53f036f5bb6c6cfc",
    "constrained/28": "243134daffe4e793",
    "constrained/29": "cf8aaaab9146ff75",
    "constrained/3": "90d0698fa25a6f15",
    "constrained/30": "c984ecfab28aa165",
    "constrained/31": "df14a5b549128006",
    "constrained/32": "b8343c73697937ee",
    "constrained/33": "640de0748a35c38d",
    "constrained/34": "465837ad2a101f91",
    "constrained/35": "7d08fd44225e29fc",
    "constrained/36": "2a20f812c24ef17c",
    "constrained/37": "ae82d7e66a6ca55e",
    "constrained/38": "3845db23d710110e",
    "constrained/39": "6306edf2cd9b7fe1",
    "constrained/4": "fbb53d02a3e383b5",
    "constrained/40": "refused",
    "constrained/41": "afab90b03ede90e7",
    "constrained/42": "refused",
    "constrained/43": "4941b5e41c6540ff",
    "constrained/44": "afde3cc086193789",
    "constrained/45": "cac4700b593b749b",
    "constrained/46": "546f3560c2fb868d",
    "constrained/47": "eb7046fdcddde698",
    "constrained/48": "62b5237f2ff0a3c8",
    "constrained/49": "d1101d13f4a88061",
    "constrained/5": "d904e1a4f75450d9",
    "constrained/50": "22db76623e6e3ac2",
    "constrained/51": "01f32a070f70a4f4",
    "constrained/52": "edab817e95b051f4",
    "constrained/53": "0b18bdedaf2740a8",
    "constrained/54": "refused",
    "constrained/55": "0f683d274e3408eb",
    "constrained/56": "00996942fc1a2ef0",
    "constrained/57": "222af623b0ebbe5c",
    "constrained/58": "7fe6a928229154f8",
    "constrained/59": "2092c395b518459d",
    "constrained/6": "4278ef46bdc90fcd",
    "constrained/7": "13a2a68e4f0f6820",
    "constrained/8": "1feed15a5cf2b6e2",
    "constrained/9": "32da7272cd9a206b",
}


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_budget_digest(name):
    assert digest(CASES[name]) == DIGESTS[name]


def test_cases_cover_refusal_and_cap():
    assert list(DIGESTS.values()).count("refused") >= 5
    for name in _capped():
        b = compute_budgets(CASES[name])
        assert any(b.per_task[t.id] == t.D - t.C for t in CASES[name])
