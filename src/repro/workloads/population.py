"""Synthetic peer population calibrated to Section 5 of the paper.

The generator reproduces, at a configurable scale, every structural
property the deployment analysis measures:

- **Geography (Fig 5)** — peer-country shares led by US (28.5 %) and
  CN (24.2 %); ~152 countries total; ~8.8 % multihomed peers.
- **AS structure (Table 2, Fig 7d)** — the five named top ASes with
  their published IP shares (>50 % combined), top-10 ≈ 65 %,
  top-100 ≈ 90 %, ~2715 ASes total (Zipf tail).
- **PeerIDs per IP (Fig 7c)** — >92 % of IPs host one PeerID while ten
  "mega" IPs host roughly a third of all PeerIDs.
- **Dialability (Fig 4a/7b)** — ~45 % of addresses never reachable;
  about one third of peers never accessible.
- **Reliability (Fig 7a)** — ~1.4 % of peers with >90 % uptime.
- **Clouds (Table 3)** — <2.3 % of IPs in cloud providers, Contabo
  first, AWS second.
- **Churn (Fig 8)** — log-normal session lengths with country-specific
  medians (HK 24.2 min; Germany more than double that).

Because peer-level and IP-level marginals interact (the paper's CN has
31.7 % of IPs but only 24.2 % of peers), IP attributes are drawn from
the AS table first and the *mega-IP skew* then shifts the peer-level
distribution — the same mechanism the paper observes.

There is one generator, :func:`generate_compact_population`, and it
stores the result as a :class:`CompactPopulation`: flat arrays of about
900 bytes per peer, so million-peer worlds fit in memory.

- per peer: country code, reachability, peer class, agent version, and
  an offset into the flat address table;
- per address slot: packed IPv4, ASN, country code, cloud code.

``PeerSpec``/``PeerId`` objects are views, built only when protocol or
analysis code touches one peer (:meth:`CompactPopulation.spec_at`).
:func:`generate_population` is the object view of the whole population
(:meth:`CompactPopulation.to_population`: specs plus registries), for
the per-figure experiments that want every peer as an object.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import accumulate

from repro.measurement.registries import AsInfo, CloudRegistry, GeoIpRegistry
from repro.multiformats.peerid import PeerId
from repro.simnet.churn import ChurnModel
from repro.simnet.latency import PeerClass, Region


# --------------------------------------------------------------------------
# Calibration tables
# --------------------------------------------------------------------------

#: country -> macro region of the latency matrix.
COUNTRY_REGION: dict[str, Region] = {
    "US": Region.NA_WEST, "CA": Region.NA_EAST, "MX": Region.NA_EAST,
    "BR": Region.SA, "AR": Region.SA, "CL": Region.SA, "CO": Region.SA,
    "CN": Region.ASIA_EAST, "TW": Region.ASIA_EAST, "KR": Region.ASIA_EAST,
    "JP": Region.ASIA_EAST, "HK": Region.ASIA_EAST,
    "SG": Region.ASIA_SE, "TH": Region.ASIA_SE, "VN": Region.ASIA_SE,
    "ID": Region.ASIA_SE, "MY": Region.ASIA_SE, "IN": Region.ASIA_SE,
    "FR": Region.EU, "DE": Region.EU, "GB": Region.EU, "NL": Region.EU,
    "PL": Region.EU, "RU": Region.EU, "UA": Region.EU, "IT": Region.EU,
    "ES": Region.EU, "SE": Region.EU, "CH": Region.EU, "FI": Region.EU,
    "ZA": Region.AFRICA, "NG": Region.AFRICA, "KE": Region.AFRICA,
    "EG": Region.AFRICA,
    "AE": Region.MIDDLE_EAST, "SA": Region.MIDDLE_EAST, "IL": Region.MIDDLE_EAST,
    "TR": Region.MIDDLE_EAST, "BH": Region.MIDDLE_EAST,
    "AU": Region.OCEANIA, "NZ": Region.OCEANIA,
}

#: Median session length in minutes, per country (Fig 8 calibration:
#: Hong Kong 24.2 min; Germany "more than double that figure").
CHURN_MEDIAN_MIN: dict[str, float] = {
    "HK": 24.2, "DE": 52.0, "US": 40.0, "CN": 29.0, "FR": 46.0,
    "KR": 33.0, "TW": 30.0, "JP": 44.0, "GB": 45.0, "CA": 42.0,
}
DEFAULT_CHURN_MEDIAN_MIN = 38.0

#: The five ASes of Table 2 with their published IP shares, followed by
#: five fabricated-but-plausible next entries chosen so the top-10
#: cumulative share lands on the paper's 64.9 %.
_TOP_ASES: list[tuple[int, int, str, str, float]] = [
    (4134, 76, "CHINANET-BACKBONE No.31,Jin-rong Street, CN", "CN", 0.189),
    (4837, 160, "CHINA169-BACKBONE CHINA UNICOM China169 Back., CN", "CN", 0.128),
    (4760, 2976, "HKTIMS-AP HKT Limited, HK", "HK", 0.096),
    (26599, 6797, "TELEFONICA BRASIL S.A, BR", "BR", 0.069),
    (3462, 340, "HINET Data Communication Business Group, TW", "TW", 0.053),
    (4766, 523, "KIXS-AS-KR Korea Telecom, KR", "KR", 0.035),
    (7922, 19, "COMCAST-7922, US", "US", 0.025),
    (3215, 233, "Orange S.A., FR", "FR", 0.020),
    (701, 18, "UUNET Verizon Business, US", "US", 0.018),
    (9808, 257, "CMNET-GD Guangdong Mobile, CN", "CN", 0.016),
]

#: Country weights for the fabricated AS tail (shapes the long tail of
#: the IP-level geography).
_TAIL_AS_COUNTRIES: list[tuple[str, float]] = [
    ("US", 0.30), ("DE", 0.07), ("FR", 0.06), ("KR", 0.05), ("JP", 0.05),
    ("GB", 0.045), ("CA", 0.04), ("NL", 0.035), ("RU", 0.03), ("PL", 0.025),
    ("CN", 0.025), ("TW", 0.02), ("BR", 0.02), ("AU", 0.02), ("SG", 0.02),
    ("IN", 0.02), ("IT", 0.02), ("ES", 0.02), ("SE", 0.015), ("CH", 0.015),
    ("ZA", 0.01), ("AE", 0.01), ("TR", 0.01), ("UA", 0.01), ("MX", 0.01),
    ("AR", 0.01), ("CL", 0.01), ("TH", 0.01), ("VN", 0.01), ("ID", 0.01),
    ("MY", 0.01), ("FI", 0.01), ("EG", 0.005), ("KE", 0.005), ("NG", 0.005),
    ("IL", 0.005), ("NZ", 0.005), ("SA", 0.005), ("CO", 0.005), ("HK", 0.005),
]

#: Cloud providers of Table 3 with their share of all IP addresses.
CLOUD_SHARES: list[tuple[str, float]] = [
    ("Contabo GmbH", 0.0048),
    ("Amazon AWS", 0.0038),
    ("Microsoft Azure/Corporation", 0.0033),
    ("Digital Ocean", 0.0018),
    ("Hetzner Online", 0.0013),
    ("GZ Systems", 0.00075),
    ("OVH", 0.00073),
    ("Google Cloud", 0.00062),
    ("Tencent Cloud", 0.00056),
    ("Choopa, LLC. Cloud", 0.00053),
    ("Alibaba Cloud", 0.00039),
    ("CloudFlare Inc", 0.00030),
    ("Oracle Cloud", 0.00006),
    ("IBM Cloud", 0.00002),
    ("Other Cloud Providers", 0.0043),
]

#: Peer-level country shares (Figure 5 targets; top five are the
#: paper's numbers, the rest plausible fill, scaled to leave a 6 % tail
#: across ~132 further pseudo countries for the 152-country total).
PEER_COUNTRY_SHARES: list[tuple[str, float]] = [
    ("US", 0.285), ("CN", 0.242), ("FR", 0.083), ("TW", 0.072), ("KR", 0.067),
    ("DE", 0.048), ("HK", 0.036), ("JP", 0.028), ("GB", 0.022), ("CA", 0.019),
    ("BR", 0.015), ("NL", 0.015), ("RU", 0.014), ("PL", 0.011), ("SG", 0.010),
    ("AU", 0.008), ("IN", 0.007), ("IT", 0.007), ("ES", 0.006), ("SE", 0.005),
]
_NAMED_SHARE_SCALE = 0.94  # leaves 6 % for the pseudo-country tail
N_TAIL_COUNTRIES = 132

#: IPs-per-peer multiplier per country. This reconciles the peer-level
#: geography (Fig 5) with the IP-level AS shares (Table 2): HKT's 9.6 %
#: of IPs with only ~3.6 % of peers means Hong Kong addresses rotate
#: under their peers (many IPs per peer); the US is the opposite.
IP_MULTIPLIER: dict[str, float] = {
    "HK": 3.7, "CN": 1.85, "BR": 5.5, "TW": 1.35, "US": 0.75,
    "KR": 0.75, "FR": 0.5,
}

#: Mega-IP host countries: ten addresses hosting ~a third of all
#: PeerIDs (Fig 7c). Skewed to the US, which is how the peer-level
#: country distribution ends up US-led while the IP level is CN-led.
_MEGA_IP_COUNTRIES = ["US", "CN", "US", "CN", "FR", "TW", "KR", "US", "DE", "HK"]

#: Fraction of all PeerIDs hosted on the ten mega IPs.
MEGA_PEER_FRACTION = 0.33

#: Paper: 464 k IPs over 199 k peers — about 2.3 addresses per peer.
MEAN_IPS_PER_PEER = 2.3

#: Fraction of peers advertising IPs in multiple countries.
MULTIHOMING_FRACTION = 0.088


@dataclass(frozen=True)
class PopulationConfig:
    """Scale and mixture knobs (defaults reproduce the paper)."""

    n_peers: int = 5000
    n_tail_ases: int = 2705  # + 10 named = 2715 total (Section 5.2)
    never_reachable_fraction: float = 0.33
    reliable_fraction: float = 0.014
    cloud_always_on: bool = True
    slow_fraction_of_home: float = 0.10


@dataclass(frozen=True)
class PeerSpec:
    """Everything the simulator and analysis need about one peer."""

    index: int
    peer_id: PeerId
    ips: tuple[str, ...]
    country: str  # of the primary address
    countries: tuple[str, ...]
    asn: int
    region: Region
    cloud_provider: str | None
    reachability: str  # 'reliable' | 'never' | 'churning'
    peer_class: PeerClass
    churn_model: ChurnModel
    agent_version: str

    @property
    def multihomed(self) -> bool:
        return len(set(self.countries)) > 1


@dataclass
class Population:
    """The generated peers plus their consistent lookup registries."""

    peers: list[PeerSpec]
    geo: GeoIpRegistry
    clouds: CloudRegistry
    config: PopulationConfig

    def peer_ips(self) -> dict[PeerId, tuple[str, ...]]:
        return {peer.peer_id: peer.ips for peer in self.peers}

    def all_ips(self) -> list[str]:
        seen: set[str] = set()
        out: list[str] = []
        for peer in self.peers:
            for ip in peer.ips:
                if ip not in seen:
                    seen.add(ip)
                    out.append(ip)
        return out


def _build_as_table(rng: random.Random, n_tail: int) -> list[tuple[AsInfo, str, float]]:
    """The global AS share table: named heads + Zipf tail.

    Tail shares are scaled so ranks 11-100 sum to ~25.7 % (making the
    top-100 share 90.6 %) and the rest covers the remainder.
    """
    table: list[tuple[AsInfo, str, float]] = [
        (AsInfo(asn, rank, name), country, share)
        for asn, rank, name, country, share in _TOP_ASES
    ]
    head_share = sum(share for *_, share in table)
    mid_total = 0.906 - head_share  # ranks 11..100
    tail_total = 1.0 - 0.906  # ranks 101..
    mid_weights = [1.0 / i for i in range(1, 91)]
    mid_scale = mid_total / sum(mid_weights)
    far_count = n_tail - 90
    far_weights = [1.0 / i for i in range(1, far_count + 1)]
    far_scale = tail_total / sum(far_weights)
    countries = [c for c, _ in _TAIL_AS_COUNTRIES]
    weights = [w for _, w in _TAIL_AS_COUNTRIES]
    next_asn = 60000
    next_rank = 300
    for position in range(n_tail):
        share = (
            mid_weights[position] * mid_scale
            if position < 90
            else far_weights[position - 90] * far_scale
        )
        country = rng.choices(countries, weights)[0]
        info = AsInfo(next_asn + position, next_rank + position * 3,
                      f"SYNTH-AS-{next_asn + position}, {country}")
        table.append((info, country, share))
    return table


def _churn_model_for(country: str) -> ChurnModel:
    median_min = CHURN_MEDIAN_MIN.get(country, DEFAULT_CHURN_MEDIAN_MIN)
    return ChurnModel(median_session_s=median_min * 60.0)


_AGENT_VERSIONS = [
    ("go-ipfs/0.10.0", 0.38), ("go-ipfs/0.9.1", 0.22), ("go-ipfs/0.8.0", 0.15),
    ("hydra-booster/0.7.4", 0.05), ("storm/1.0", 0.06), ("go-ipfs/0.11.0-rc1", 0.04),
    ("other", 0.10),
]

#: Reachability codes (array values -> the ``PeerSpec`` string tags).
REACHABILITY_NAMES = ("churning", "reliable", "never")
REACH_CHURNING, REACH_RELIABLE, REACH_NEVER = 0, 1, 2

#: Peer-class codes (array values -> the latency-model enum).
PEER_CLASSES = (PeerClass.HOME, PeerClass.SLOW, PeerClass.DATACENTER)

_REACH_CODE = {name: code for code, name in enumerate(REACHABILITY_NAMES)}
_CLASS_CODE = {cls: code for code, cls in enumerate(PEER_CLASSES)}
_AGENT_NAMES = [name for name, _ in _AGENT_VERSIONS]


def unpack_ip(packed: int) -> str:
    """The 32-bit integer the address arrays store -> ``"a.b.c.d"``."""
    return "%d.%d.%d.%d" % (
        (packed >> 24) & 0xFF, (packed >> 16) & 0xFF,
        (packed >> 8) & 0xFF, packed & 0xFF,
    )


class CompactPopulation:
    """Struct-of-arrays peer state with lazy ``PeerSpec`` materialization."""

    __slots__ = (
        "config",
        "countries",
        "peer_country",
        "peer_reach",
        "peer_class",
        "peer_agent",
        "ip_off",
        "addr_ip",
        "addr_asn",
        "addr_country",
        "addr_cloud",
        "as_table",
        "mega_creations",
        "_peer_ids",
        "_region_by_code",
    )

    def __init__(
        self,
        config: PopulationConfig,
        countries: list[str],
        peer_country: array,
        peer_reach: array,
        peer_class: array,
        peer_agent: array,
        ip_off: array,
        addr_ip: array,
        addr_asn: array,
        addr_country: array,
        addr_cloud: array,
        as_table: list,
        mega_creations: list[tuple[int, int, int, int]],
    ) -> None:
        self.config = config
        self.countries = countries
        self.peer_country = peer_country
        self.peer_reach = peer_reach
        self.peer_class = peer_class
        self.peer_agent = peer_agent
        self.ip_off = ip_off
        self.addr_ip = addr_ip
        self.addr_asn = addr_asn
        self.addr_country = addr_country
        self.addr_cloud = addr_cloud
        self.as_table = as_table
        self.mega_creations = mega_creations
        self._peer_ids: list[PeerId | None] = [None] * len(peer_country)
        self._region_by_code = [
            COUNTRY_REGION.get(name, Region.EU) for name in countries
        ]

    def __len__(self) -> int:
        return len(self.peer_country)

    @property
    def n_peers(self) -> int:
        return len(self.peer_country)

    def nbytes(self) -> int:
        """Bytes held by the columnar state (arrays only)."""
        total = 0
        for name in (
            "peer_country", "peer_reach", "peer_class", "peer_agent",
            "ip_off", "addr_ip", "addr_asn", "addr_country", "addr_cloud",
        ):
            column = getattr(self, name)
            total += column.buffer_info()[1] * column.itemsize
        return total

    # -- lazy per-peer materialization ----------------------------------

    def peer_id_at(self, index: int) -> PeerId:
        """The peer's ``PeerId`` (memoized; a pure function of index)."""
        peer_id = self._peer_ids[index]
        if peer_id is None:
            peer_id = PeerId.from_public_key(b"population-peer-%d" % index)
            self._peer_ids[index] = peer_id
        return peer_id

    def country_at(self, index: int) -> str:
        return self.countries[self.peer_country[index]]

    def region_at(self, index: int) -> Region:
        return self._region_by_code[self.peer_country[index]]

    def reachability_at(self, index: int) -> str:
        return REACHABILITY_NAMES[self.peer_reach[index]]

    def peer_class_at(self, index: int) -> PeerClass:
        return PEER_CLASSES[self.peer_class[index]]

    def agent_at(self, index: int) -> str:
        return _AGENT_NAMES[self.peer_agent[index]]

    def churn_model_at(self, index: int) -> ChurnModel:
        return _churn_model_for(self.country_at(index))

    def ips_at(self, index: int) -> tuple[str, ...]:
        lo, hi = self.ip_off[index], self.ip_off[index + 1]
        return tuple(unpack_ip(self.addr_ip[slot]) for slot in range(lo, hi))

    def cloud_at(self, index: int) -> str | None:
        code = self.addr_cloud[self.ip_off[index]]
        return None if code < 0 else CLOUD_SHARES[code][0]

    def spec_at(self, index: int) -> PeerSpec:
        """Materialize the ``PeerSpec`` view of one peer."""
        lo, hi = self.ip_off[index], self.ip_off[index + 1]
        country = self.country_at(index)
        return PeerSpec(
            index=index,
            peer_id=self.peer_id_at(index),
            ips=self.ips_at(index),
            country=country,
            countries=tuple(
                self.countries[self.addr_country[slot]]
                for slot in range(lo, hi)
            ),
            asn=self.addr_asn[lo],
            region=self._region_by_code[self.peer_country[index]],
            cloud_provider=self.cloud_at(index),
            reachability=REACHABILITY_NAMES[self.peer_reach[index]],
            peer_class=PEER_CLASSES[self.peer_class[index]],
            churn_model=_churn_model_for(country),
            agent_version=_AGENT_NAMES[self.peer_agent[index]],
        )

    # -- the object view -----------------------------------------------

    def to_population(self) -> Population:
        """Materialize the whole ``Population`` (specs + registries).

        Registries are filled in address creation order: the ten mega
        IPs first, then each address slot's IP on first sight.
        """
        geo = GeoIpRegistry()
        clouds = CloudRegistry()
        for name, _ in CLOUD_SHARES:
            clouds.add_provider(name)
        for info, _country, _share in self.as_table:
            geo.add_as(info)
        seen: set[int] = set()

        def register(packed: int, country_code: int, asn: int, cloud: int) -> None:
            if packed in seen:
                return
            seen.add(packed)
            ip = unpack_ip(packed)
            geo.add_ip(ip, self.countries[country_code], asn)
            if cloud >= 0:
                clouds.add_ip(ip, CLOUD_SHARES[cloud][0])

        for packed, country_code, asn, cloud in self.mega_creations:
            register(packed, country_code, asn, cloud)
        for slot in range(len(self.addr_ip)):
            register(
                self.addr_ip[slot], self.addr_country[slot],
                self.addr_asn[slot], self.addr_cloud[slot],
            )
        peers = [self.spec_at(index) for index in range(len(self))]
        return Population(peers, geo, clouds, self.config)


def generate_population(
    config: PopulationConfig, rng: random.Random
) -> Population:
    """Generate a population plus its consistent registries, as objects.

    The object view of :func:`generate_compact_population`.
    """
    return generate_compact_population(config, rng).to_population()


def generate_compact_population(
    config: PopulationConfig, rng: random.Random
) -> CompactPopulation:
    """Generate a population as flat arrays.

    Deterministic for a given (config, RNG state). Peers get their
    country first (Fig 5 marginals), then addresses within that
    country's ASes; per-country IP multipliers and the mega-IP skew
    reproduce the IP-level marginals (Table 2, Fig 7c).
    """
    as_table = _build_as_table(rng, config.n_tail_ases)

    # Country-code interning: sampler countries first (stable codes for
    # the hot path), then any AS-table-only countries on first sight.
    countries: list[str] = []
    code_of: dict[str, int] = {}

    def intern(country: str) -> int:
        code = code_of.get(country)
        if code is None:
            code = len(countries)
            code_of[country] = code
            countries.append(country)
        return code

    # Per-country AS index (weights = the AS's global share), with
    # precomputed cumulative weights: ``choices(asns, cum_weights=...)``
    # draws one ``random()`` and bisects, in O(log n) instead of
    # re-accumulating the weights on every call.
    by_country: dict[str, tuple[list[int], list[float]]] = {}
    for info, country, share in as_table:
        asns, weights = by_country.setdefault(country, ([], []))
        asns.append(info.asn)
        weights.append(share)
    by_country_cum = {
        country: (asns, list(accumulate(weights)))
        for country, (asns, weights) in by_country.items()
    }
    fallback_asns = [info.asn for info, _, _ in as_table[:200]]
    fallback_cum = list(accumulate(share for _, _, share in as_table[:200]))

    used: set[int] = set()

    def new_ip(country: str) -> tuple[int, int, int, int]:
        """(packed ip, asn, cloud code, country code) of a fresh address."""
        asns, cum = by_country_cum.get(country, (fallback_asns, fallback_cum))
        asn = rng.choices(asns, cum_weights=cum)[0]
        packed = _synth_ip(rng, used)
        cloud = _sample_cloud(rng)
        return packed, asn, cloud, intern(country)

    sample_country = _country_sampler(rng)

    # The ten mega IPs (Fig 7c), in fixed countries roughly matching
    # the peer-country distribution so they do not skew Fig 5.
    mega_creations: list[tuple[int, int, int, int]] = []
    mega_by_country: dict[str, tuple[list[tuple[int, int, int]], list[float]]] = {}
    for position, country in enumerate(_MEGA_IP_COUNTRIES):
        packed, asn, cloud, country_code = new_ip(country)
        mega_creations.append((packed, country_code, asn, cloud))
        entries, weights = mega_by_country.setdefault(country, ([], []))
        entries.append((packed, asn, cloud))
        weights.append(1.0 / (position + 1))

    shared_pool: dict[str, list[tuple[int, int, int]]] = {}
    agent_indexes = list(range(len(_AGENT_VERSIONS)))
    agent_cum = list(accumulate(weight for _, weight in _AGENT_VERSIONS))

    n = config.n_peers
    peer_country = array("H", bytes(2 * n))
    peer_reach = array("b", bytes(n))
    peer_class = array("b", bytes(n))
    peer_agent = array("b", bytes(n))
    ip_off = array("I", bytes(4 * (n + 1)))
    addr_ip = array("I")
    addr_asn = array("i")
    addr_country = array("H")
    addr_cloud = array("b")

    def push_slot(packed: int, asn: int, cloud: int, country_code: int) -> None:
        addr_ip.append(packed)
        addr_asn.append(asn)
        addr_country.append(country_code)
        addr_cloud.append(cloud)

    for index in range(n):
        country = sample_country()
        country_code = intern(country)
        megas = mega_by_country.get(country)
        if megas is not None and rng.random() < _mega_probability(country):
            entries, weights = megas
            packed, asn, cloud = rng.choices(entries, weights)[0]
            push_slot(packed, asn, cloud, country_code)
        else:
            _give_addresses(
                rng, country, country_code, new_ip, sample_country,
                shared_pool, intern, push_slot,
            )
        first = ip_off[index]
        cloud_name = (
            None if addr_cloud[first] < 0 else CLOUD_SHARES[addr_cloud[first]][0]
        )
        reachability = _sample_reachability(rng, config, cloud_name)
        peer_klass = _sample_class(rng, config, cloud_name)
        peer_country[index] = country_code
        peer_reach[index] = _REACH_CODE[reachability]
        peer_class[index] = _CLASS_CODE[peer_klass]
        peer_agent[index] = rng.choices(agent_indexes, cum_weights=agent_cum)[0]
        ip_off[index + 1] = len(addr_ip)

    return CompactPopulation(
        config=config,
        countries=countries,
        peer_country=peer_country,
        peer_reach=peer_reach,
        peer_class=peer_class,
        peer_agent=peer_agent,
        ip_off=ip_off,
        addr_ip=addr_ip,
        addr_asn=addr_asn,
        addr_country=addr_country,
        addr_cloud=addr_cloud,
        as_table=as_table,
        mega_creations=mega_creations,
    )


def _country_sampler(rng: random.Random):
    """Returns a zero-arg sampler of peer countries (Fig 5 targets).

    The weights are accumulated once: this is the hottest draw of the
    generator at 1M peers.
    """
    countries = [c for c, _ in PEER_COUNTRY_SHARES]
    weights = [s * _NAMED_SHARE_SCALE for _, s in PEER_COUNTRY_SHARES]
    tail = ["X%03d" % i for i in range(N_TAIL_COUNTRIES)]
    tail_total = 1.0 - sum(weights)
    # Zipf-ish tail so some pseudo countries are visibly larger.
    tail_raw = [1.0 / (i + 1) for i in range(N_TAIL_COUNTRIES)]
    scale = tail_total / sum(tail_raw)
    countries += tail
    weights += [w * scale for w in tail_raw]
    cum = list(accumulate(weights))

    def sample() -> str:
        return rng.choices(countries, cum_weights=cum)[0]

    return sample


def _give_addresses(
    rng, country, country_code, new_ip, sample_country, shared_pool,
    intern, push_slot,
) -> None:
    """Regular peers: 1..N address slots, mostly within their country.

    The per-country multiplier (see :data:`IP_MULTIPLIER`) gives
    address-rotating ISPs (HKT, Brazilian and Chinese carriers) more
    IPs per peer, reconciling Fig 5 with Table 2. A small fraction of
    primary addresses is drawn from a shared pool (university NATs,
    small hosters), producing the 2-10-PeerID IPs below the mega tier
    in Figure 7c.
    """
    multiplier = IP_MULTIPLIER.get(country, 1.0)
    base = _sample_extra_ip_count(rng)
    extra = min(9, round(base * multiplier + (multiplier - 1.0)))
    pool = shared_pool.setdefault(country, [])
    if pool and rng.random() < 0.08:
        packed, asn, cloud = rng.choice(pool)
    else:
        packed, asn, cloud, _code = new_ip(country)
        if rng.random() < 0.05:
            pool.append((packed, asn, cloud))
            if len(pool) > 40:
                pool.pop(0)
    push_slot(packed, asn, cloud, country_code)
    # Target ~8.8 % multihomed peers overall; only regular peers (about
    # two thirds of the population) can be, hence the 0.13 local rate.
    multihomed = rng.random() < 0.13
    for position in range(max(extra, 1 if multihomed else extra)):
        other_country = country
        if multihomed and position == 0:
            for _ in range(4):
                other_country = sample_country()
                if other_country != country:
                    break
        packed, asn, cloud, other_code = new_ip(other_country)
        push_slot(packed, asn, cloud, other_code)


def _synth_ip(rng: random.Random, used: set[int]) -> int:
    """A fresh random packed IPv4 address (redrawn on collision)."""
    while True:
        packed = (
            (((rng.randrange(1, 224) << 8) | rng.randrange(256)) << 16)
            | (rng.randrange(256) << 8) | rng.randrange(1, 255)
        )
        if packed not in used:
            used.add(packed)
            return packed


def _sample_cloud(rng: random.Random) -> int:
    """Index into :data:`CLOUD_SHARES` of an address's cloud, or -1."""
    roll = rng.random()
    cumulative = 0.0
    for code, (_name, share) in enumerate(CLOUD_SHARES):
        cumulative += share
        if roll < cumulative:
            return code
    return -1


def _mega_probability(country: str) -> float:
    """P(live on a mega IP | country has one), tuned so the global
    mega-hosted fraction lands near :data:`MEGA_PEER_FRACTION`.

    Countries with mega IPs cover ~85 % of peers, so 0.33/0.85 ≈ 0.39.
    """
    return MEGA_PEER_FRACTION / 0.85


def _sample_extra_ip_count(rng: random.Random) -> int:
    """Extra addresses per regular peer before the country multiplier;
    tuned so the global average lands near :data:`MEAN_IPS_PER_PEER`."""
    roll = rng.random()
    if roll < 0.25:
        return 0
    if roll < 0.55:
        return 1
    if roll < 0.85:
        return 2
    return 3


def _sample_reachability(
    rng: random.Random, config: PopulationConfig, cloud: str | None
) -> str:
    if cloud is not None and config.cloud_always_on:
        return "reliable" if rng.random() < 0.5 else "churning"
    roll = rng.random()
    if roll < config.never_reachable_fraction:
        return "never"
    if roll < config.never_reachable_fraction + config.reliable_fraction:
        return "reliable"
    return "churning"


def _sample_class(
    rng: random.Random, config: PopulationConfig, cloud: str | None
) -> PeerClass:
    if cloud is not None:
        return PeerClass.DATACENTER
    if rng.random() < config.slow_fraction_of_home:
        return PeerClass.SLOW
    return PeerClass.HOME
