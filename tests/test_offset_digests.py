"""Frozen offset search: sha256 of (status, candidates) per observation.

Each digest keeps the first 16 hex digits of the sha256 of the repr of
`infer_offsets`' status and candidate tuple.  They were taken from the
search that walked every partial assignment on the whole window.  Any
change to the search, its prunes or its window that adds, drops or
reorders one candidate changes a digest here.  The cases cover:

- attack-like phased sets, n 3 to 6 with periods 4 to 20, observed over
  one hyperperiod (periods that divide 240) or over 2 T_max;
- overloaded sets (U in (1, 1.2]) with random deadlines and priorities,
  observed over T_max, 2 T_max and H;
- sets with U <= 1 observed for longer than T_max + 2H;
- random busy masks that no set need explain;
- the harmonic U = 1 sets C,T = (s,4s), (2s,8s), (4s,16s), (8s,32s) for
  s = 1..3, synchronous, over one hyperperiod.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from schedlab.phase_inference import Observation, infer_offsets, observe
from schedlab.tasks import Task, TaskSet, generate_taskset, hyperperiod, utilization

H_POOL = (4, 5, 6, 8, 10, 12, 15, 16, 20)  # divisors of 240


def phased(ts, rng):
    return TaskSet(tuple(replace(t, phase=rng.randrange(t.T)) for t in ts), ts.name)


def attack_like(count, seed, by_hyperperiod):
    """Phased sets, n cycling through 3..6, U drawn from [0.3, 0.8]."""
    rng = random.Random(seed)
    pool = H_POOL if by_hyperperiod else range(4, 21)
    out = []
    while len(out) < count:
        n = 3 + len(out) % 4
        try:
            ts = generate_taskset(n, round(rng.uniform(0.3, 0.8), 4), pool,
                                  seed=rng.getrandbits(32), tol=0.02)
        except ValueError:
            continue  # lattice miss near the target; redraw
        ts = phased(ts, rng)
        window = hyperperiod(ts) if by_hyperperiod else 2 * max(t.T for t in ts)
        out.append((ts, observe(ts, window)))
    return out


def random_set(rng, n, periods, u_lo, u_hi):
    """n tasks with random periods, deadlines, phases and priorities."""
    target = rng.uniform(u_lo, u_hi)
    shares = [rng.random() for _ in range(n)]
    prios = rng.sample(range(1, n + 1), n)
    tasks = []
    for i, share in enumerate(shares):
        T = rng.choice(periods)
        C = min(T, max(1, round(target * share / sum(shares) * T)))
        tasks.append(Task(id=i + 1, C=C, T=T, D=rng.randint(C, T),
                          phase=rng.randrange(T), priority=prios[i]))
    return TaskSet(tuple(tasks))


def overloaded(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ts = random_set(rng, rng.randint(2, 3), range(2, 13), 1.05, 1.2)
        if utilization(ts) <= 1:
            continue
        longest = max(t.T for t in ts)
        window = (longest, 2 * longest, hyperperiod(ts))[len(out) % 3]
        out.append((ts, observe(ts, window)))
    return out


def long_windows(count, seed):
    """U <= 1 over T_max + 2H + k H/2 ticks, k in 1..8."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ts = random_set(rng, rng.randint(2, 4), (2, 3, 4, 6, 8, 12), 0.3, 1.0)
        if utilization(ts) > 1:
            continue
        h = hyperperiod(ts)
        window = max(t.T for t in ts) + 2 * h + rng.randint(1, 8) * h // 2
        out.append((ts, observe(ts, window)))
    return out


def noise(count, seed):
    """Attack-like sets against random busy masks over 2 T_max."""
    rng = random.Random(seed)
    out = []
    for ts, obs in attack_like(count, seed, by_hyperperiod=False):
        busy, tick = [], 0
        while tick < obs.window:
            start = tick + rng.randint(0, 3)
            end = min(obs.window, start + rng.randint(1, 6))
            if start < end:
                busy.append((start, end))
            tick = end + 1
        out.append((ts, Observation(window=obs.window, busy=tuple(busy))))
    return out


def harmonic(s):
    ts = TaskSet(tuple(Task(id=i + 1, C=s << i, T=4 * s << i, priority=i + 1)
                       for i in range(4)))
    return ts, observe(ts, hyperperiod(ts))


def build_cases():
    cases = {}
    for group, items in (("hyper", attack_like(120, 2301, True)),
                         ("twice", attack_like(120, 2302, False)),
                         ("over", overloaded(45, 2303)),
                         ("long", long_windows(24, 2304)),
                         ("noise", noise(16, 2305))):
        cases.update({f"{group}/{i}": item for i, item in enumerate(items)})
    cases.update({f"harmonic/{s}": harmonic(s) for s in (1, 2, 3)})
    return cases


CASES = build_cases()


def digest(ts, obs):
    result = infer_offsets(ts, obs)
    text = repr((result.status, result.candidates))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


DIGESTS = {
    "harmonic/1": "490aefc4bb7aafea",
    "harmonic/2": "7f8e7b2faafabf10",
    "harmonic/3": "ddb1f5489953bb38",
    "hyper/0": "afac39d82537e32f",
    "hyper/1": "b9b9f0e4d2a7d768",
    "hyper/10": "d58f89082c371061",
    "hyper/100": "8972c49ebefe4695",
    "hyper/101": "1da2419969a93c8d",
    "hyper/102": "17a313c5b396c3d3",
    "hyper/103": "d7b439bdebc33b54",
    "hyper/104": "b7d4d0c0b455cd2d",
    "hyper/105": "79ea05febab177c2",
    "hyper/106": "0dea2960bd863c95",
    "hyper/107": "e54f368af87807b4",
    "hyper/108": "d4cd758c874e51b2",
    "hyper/109": "ac0119aed1050b41",
    "hyper/11": "e4e43574af80d767",
    "hyper/110": "0f17f7a4cad273f6",
    "hyper/111": "2bc5ed1d4cf217eb",
    "hyper/112": "f8ce88cba4b456bf",
    "hyper/113": "e40eb03a732d286a",
    "hyper/114": "88eea10f2fc8236c",
    "hyper/115": "6f30f928c125ce19",
    "hyper/116": "51145fb6c547590c",
    "hyper/117": "24f0c2600acf176c",
    "hyper/118": "989a24d6e1163c29",
    "hyper/119": "ce70c40720ba8b4d",
    "hyper/12": "1f2ad1fa376377b4",
    "hyper/13": "d356a6d0c7060f73",
    "hyper/14": "16e03a8cf04eaf75",
    "hyper/15": "8e393e0ff4f67209",
    "hyper/16": "06784b98d07820f4",
    "hyper/17": "4462744c155c0a0c",
    "hyper/18": "16db69911eb05728",
    "hyper/19": "693a1549c296f819",
    "hyper/2": "aa6937f2edcbbdc7",
    "hyper/20": "abcd882b0486696a",
    "hyper/21": "ff7594ab86b1f8e2",
    "hyper/22": "4131fa3fb6029c10",
    "hyper/23": "bb42edcbfcc411b0",
    "hyper/24": "585db78f4ee1468d",
    "hyper/25": "7281ea16d52c58c4",
    "hyper/26": "892d1a0e635337d6",
    "hyper/27": "e1a9291d59ff7e21",
    "hyper/28": "abf4354fefe61ca0",
    "hyper/29": "3c97f723420c5847",
    "hyper/3": "2468b557d3af7e82",
    "hyper/30": "f695f3650afc0739",
    "hyper/31": "1d17a84fdfe2fb94",
    "hyper/32": "5fec651c38f48ed9",
    "hyper/33": "93e42640210c0340",
    "hyper/34": "38d47f146818a6f2",
    "hyper/35": "173637561252ea20",
    "hyper/36": "94d83f8333bb48bf",
    "hyper/37": "777dacf9b09c9ea8",
    "hyper/38": "3e0ae4dc1fc0453e",
    "hyper/39": "45c7453d5d8b0810",
    "hyper/4": "c381b854390e9a87",
    "hyper/40": "a278f253b3d12587",
    "hyper/41": "0b1521e65ee640b3",
    "hyper/42": "e76d4ecfa081a142",
    "hyper/43": "a4f7c7f13d15f5b8",
    "hyper/44": "8eda4b66b8192a6c",
    "hyper/45": "39be72da995bcdf1",
    "hyper/46": "f304267b58128642",
    "hyper/47": "31bdaa8cc6c23f65",
    "hyper/48": "0987afb87431604b",
    "hyper/49": "fdf70abdb159f392",
    "hyper/5": "37aae466b7685fe0",
    "hyper/50": "2a7bd75297589ae8",
    "hyper/51": "be439cf7b7e2c8fe",
    "hyper/52": "0e22ed377e857247",
    "hyper/53": "d3e3c44490e8833b",
    "hyper/54": "76beec10ce82fc8e",
    "hyper/55": "ae0b363ca4b3b040",
    "hyper/56": "cc674c18b49be746",
    "hyper/57": "f17a29328d3317f5",
    "hyper/58": "ac0fc867614b0755",
    "hyper/59": "5b68ccf8476d5f90",
    "hyper/6": "5305002505130e67",
    "hyper/60": "3090c7c39b03c3f3",
    "hyper/61": "16155399744409d3",
    "hyper/62": "de2db86675eb57d4",
    "hyper/63": "be2f5766e607fdd5",
    "hyper/64": "7a684a739043b550",
    "hyper/65": "17d170e63deecb5e",
    "hyper/66": "853d45c413dba71e",
    "hyper/67": "777d640852097e13",
    "hyper/68": "e19d517008345834",
    "hyper/69": "8ff4854fc1b19f9b",
    "hyper/7": "1f89469a9d846913",
    "hyper/70": "c42c21ae6d264136",
    "hyper/71": "a16e637aa64a8335",
    "hyper/72": "5c3ee6c31b779876",
    "hyper/73": "574895b47f5918dc",
    "hyper/74": "5728ceb8d1d4b826",
    "hyper/75": "442a0e8108bcece2",
    "hyper/76": "29aa3bb696980c94",
    "hyper/77": "edcee2c4aaa21812",
    "hyper/78": "d6d4177bbd9a3433",
    "hyper/79": "34ddeef8466f84e7",
    "hyper/8": "89a1523bbd3a150e",
    "hyper/80": "52edde0b535e7c29",
    "hyper/81": "84546b30e9bdfcb5",
    "hyper/82": "4cc1e9a93142cf99",
    "hyper/83": "6cb9b67905616eb1",
    "hyper/84": "72a949092c55b931",
    "hyper/85": "cbb66d2e7b9a0725",
    "hyper/86": "f177d3becd49dab5",
    "hyper/87": "f2416d2b893dc5bb",
    "hyper/88": "5f6a5e74aaf354a1",
    "hyper/89": "2be7ddabf3103f00",
    "hyper/9": "405358bb5355a87a",
    "hyper/90": "950f1c9d42a5080a",
    "hyper/91": "7aa239025888c9a6",
    "hyper/92": "8ca8bd6b99ca9b74",
    "hyper/93": "167f6bd45a224255",
    "hyper/94": "8b6a46c1bbd36a05",
    "hyper/95": "edd8b174cf5ce2e0",
    "hyper/96": "ad3b72054923fbdb",
    "hyper/97": "742cb7bf05213e86",
    "hyper/98": "dc1a4d981c7a0f0b",
    "hyper/99": "7416f2e5e3d6f39f",
    "long/0": "2bf00a0b977a983a",
    "long/1": "712346a2a85ff4e1",
    "long/10": "5d87cc0c28fc3960",
    "long/11": "95cc69768aa2fb56",
    "long/12": "b80000ba03ce0509",
    "long/13": "51ac42142c312e3b",
    "long/14": "5bff75fb59b8010c",
    "long/15": "1f3296e66f8b2bb6",
    "long/16": "4f9e59988eb64ec2",
    "long/17": "3e402c760693304b",
    "long/18": "e21714f794167194",
    "long/19": "a95598f7a78dd49a",
    "long/2": "c20b48ba271d5692",
    "long/20": "4d0d5df6239a6d60",
    "long/21": "12a9faa44d92cc4f",
    "long/22": "bf8284f3ad0c1caf",
    "long/23": "921e2417df261409",
    "long/3": "b2b0ff8979512bf4",
    "long/4": "db32049e95028836",
    "long/5": "4351c5343ea767b1",
    "long/6": "159fd39645ce89ee",
    "long/7": "1fe3966863a10dc9",
    "long/8": "ea473d400e603697",
    "long/9": "55bc8c58affc7f63",
    "noise/0": "e7b99616303b6368",
    "noise/1": "e7b99616303b6368",
    "noise/10": "e7b99616303b6368",
    "noise/11": "e7b99616303b6368",
    "noise/12": "e7b99616303b6368",
    "noise/13": "e7b99616303b6368",
    "noise/14": "e7b99616303b6368",
    "noise/15": "e7b99616303b6368",
    "noise/2": "e7b99616303b6368",
    "noise/3": "e7b99616303b6368",
    "noise/4": "e7b99616303b6368",
    "noise/5": "e7b99616303b6368",
    "noise/6": "e7b99616303b6368",
    "noise/7": "e7b99616303b6368",
    "noise/8": "e7b99616303b6368",
    "noise/9": "e7b99616303b6368",
    "over/0": "f3b59c53b69b0521",
    "over/1": "66f0b2c6662635ea",
    "over/10": "c2cc3806779a72ec",
    "over/11": "43206c1173756263",
    "over/12": "df88065254a5cbea",
    "over/13": "de6cc516c0e8fa81",
    "over/14": "5401ae62157967f0",
    "over/15": "cd5aa716816b3f14",
    "over/16": "a8a9503c860a706f",
    "over/17": "4d43a59605275339",
    "over/18": "1a55f090eaf0401a",
    "over/19": "ab504d4a75efd853",
    "over/2": "52881c56b38f5ebf",
    "over/20": "ad8756df2bfa6709",
    "over/21": "f3b59c53b69b0521",
    "over/22": "cf08a4f18690cecb",
    "over/23": "559bf8a6fe812d71",
    "over/24": "aa9d9f12990671dc",
    "over/25": "2c93611d0ba3e40c",
    "over/26": "1863b5005d4a5ecd",
    "over/27": "038711696a83f8b3",
    "over/28": "02eba4b45483f4b4",
    "over/29": "b50ee3adbcacf76e",
    "over/3": "d2a6b781f5531c99",
    "over/30": "db79a9323e0c523f",
    "over/31": "1a355a6a83292834",
    "over/32": "b7e26d2e5931a101",
    "over/33": "9cc4bfb938b3ef55",
    "over/34": "3eeafd247627f554",
    "over/35": "b2322165dfa56028",
    "over/36": "1a5f9b3db841816b",
    "over/37": "1dca105b5e8d2a31",
    "over/38": "73dbd16b952ae2f8",
    "over/39": "10a316e6bbc8b2df",
    "over/4": "a7f3aa7d06898f4b",
    "over/40": "65ef6c0546ee7ec0",
    "over/41": "8a7c20fe5d02e6ec",
    "over/42": "4f756509c81b032b",
    "over/43": "f6fb7504bdaf087d",
    "over/44": "3ec3d445931807ac",
    "over/5": "853ba8a0b318b11c",
    "over/6": "f61d5d0ce8703c3d",
    "over/7": "297b68c51ab53020",
    "over/8": "e7c3c58ecb925b6a",
    "over/9": "2d8682ba51e4d33a",
    "twice/0": "9023a9386e3288e7",
    "twice/1": "6701a33bc3c69b40",
    "twice/10": "62e0983d23454e88",
    "twice/100": "b417b46f7617ee51",
    "twice/101": "fc8831e06d05b679",
    "twice/102": "2684bfcfa78e860e",
    "twice/103": "69c37236eba1ba92",
    "twice/104": "48a8a6aa396763ed",
    "twice/105": "80fb177fc6f56320",
    "twice/106": "8f10e17c7fda59ae",
    "twice/107": "ab14fefbee09d6be",
    "twice/108": "7d2b21e03fcb6d66",
    "twice/109": "a11e58e6083a8216",
    "twice/11": "6a904fcb0a55a310",
    "twice/110": "1b711de696f1bbd4",
    "twice/111": "b87a44941e5a19de",
    "twice/112": "40fca74e35c96634",
    "twice/113": "c35720b70877c323",
    "twice/114": "23ecdd14d6bfd577",
    "twice/115": "3ed1315a1372b3a3",
    "twice/116": "2e07f7deb4a3850a",
    "twice/117": "7b65effb731249e6",
    "twice/118": "6df30359e7bc3430",
    "twice/119": "cba1471f7e08ae48",
    "twice/12": "709a746116075830",
    "twice/13": "78e4a75522104e54",
    "twice/14": "7606b82f16f82a24",
    "twice/15": "9b05461834b3083e",
    "twice/16": "8480801a8e1f9782",
    "twice/17": "267d2c03ee3be924",
    "twice/18": "9aae113a43f333e3",
    "twice/19": "8cc41b1e35a6b74e",
    "twice/2": "3626f99d2e00d6a3",
    "twice/20": "9fcdd80d8e3df008",
    "twice/21": "127a30eb7740bf5d",
    "twice/22": "034c6b3f12ebd133",
    "twice/23": "c5a0469083292fbc",
    "twice/24": "aa9854c7b9803f17",
    "twice/25": "8000fd3d681f2d54",
    "twice/26": "32c6f6bb198d2df7",
    "twice/27": "a57953a6fde0b430",
    "twice/28": "fa92d0b307261e8a",
    "twice/29": "462907fb986014b8",
    "twice/3": "0c593451f7bf7030",
    "twice/30": "ffece6824ac7668e",
    "twice/31": "3421e8b14a8d9590",
    "twice/32": "dfdfd288ec344459",
    "twice/33": "62eeff167119ec07",
    "twice/34": "49bbc33b2c209284",
    "twice/35": "47d5ca5d42cf292d",
    "twice/36": "dfd225d4c059ce4f",
    "twice/37": "c9352629a0d1e440",
    "twice/38": "59f5ebd00e9d912b",
    "twice/39": "50cea3ed1cdad754",
    "twice/4": "051c36a2e7af327b",
    "twice/40": "4fa026a027fa01ff",
    "twice/41": "c30140653cf32a43",
    "twice/42": "cbb1a7b8f98a1c96",
    "twice/43": "316238544e5ff060",
    "twice/44": "2d658f92017de818",
    "twice/45": "37af192b16fb38fd",
    "twice/46": "56f13c258d57e18f",
    "twice/47": "9658f6fc346cfea8",
    "twice/48": "2acb7c3c26ccc2c1",
    "twice/49": "0be4066c8ec79411",
    "twice/5": "4accb0eaf8a4ee01",
    "twice/50": "0fcd04598bf315ac",
    "twice/51": "3db0b6333f64c83a",
    "twice/52": "e8aaba20c3cd79f6",
    "twice/53": "42b070482ef69233",
    "twice/54": "09dd61593c3f768b",
    "twice/55": "dbd22ac034aebbe7",
    "twice/56": "b3142ee7889b62e3",
    "twice/57": "d2472ca6768361f1",
    "twice/58": "5647cb2f5dbe8e46",
    "twice/59": "5a2b61547ee4a1b1",
    "twice/6": "070e95d7bcfbf998",
    "twice/60": "64d0af65e10eb286",
    "twice/61": "214e79234e27f841",
    "twice/62": "8725f43207f53703",
    "twice/63": "63c4a7dda0b6ee1d",
    "twice/64": "a9a64eb3d6f4aab5",
    "twice/65": "dbf5071b8985d224",
    "twice/66": "61dc4c96ca63892e",
    "twice/67": "1ce7bc38345ee351",
    "twice/68": "fda5167c255a5629",
    "twice/69": "3c05406475638251",
    "twice/7": "494f0a76038d21e4",
    "twice/70": "6070bc5bf67ba89f",
    "twice/71": "5c982ca5fa4c8837",
    "twice/72": "50aa775650b6c52a",
    "twice/73": "e10478bf0e47134f",
    "twice/74": "8111d81928ac5284",
    "twice/75": "61485cd6703ff47f",
    "twice/76": "00e5a6fb34dda4a9",
    "twice/77": "821365736094068a",
    "twice/78": "78fdedbd855dfffc",
    "twice/79": "0d44dc822eef4f51",
    "twice/8": "82f3bcf36a47f9b0",
    "twice/80": "0c23274e4b7eedff",
    "twice/81": "a5850598ed83461a",
    "twice/82": "49fcea7b56badffe",
    "twice/83": "458af4d72ef4ec4d",
    "twice/84": "0e00efb89d488c3e",
    "twice/85": "1817e70d3ca39a01",
    "twice/86": "7e734ee6c0c6e861",
    "twice/87": "76cb573f8e805072",
    "twice/88": "5258076b085b6cce",
    "twice/89": "72660e4bb0c2f3ed",
    "twice/9": "4e128277f3502132",
    "twice/90": "0d8489b7c2934b54",
    "twice/91": "09f488e70890ef15",
    "twice/92": "c1e38bd62e6e7043",
    "twice/93": "31fd95fe5e7e35ce",
    "twice/94": "01c0dfc181738860",
    "twice/95": "67483ec76d1561d8",
    "twice/96": "792c259114342b7d",
    "twice/97": "8fc057d2e399e52b",
    "twice/98": "2da046fdad72b870",
    "twice/99": "8ba04bc482198e57",
}


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_offset_digest(name):
    assert digest(*CASES[name]) == DIGESTS[name]
