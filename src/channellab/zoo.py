"""Catalog of named channels used as shared fixtures.

`FAMILIES` gives each of nine channel families (basis-exchange, three-level
cascade, depolarizing, amplitude damping, dephasing, unitary rotation, two
conserved-dilation families, and seeded Haar-random channels for fuzzing)
its dimension, parameter names and builder; `catalog` lists named instances
of them.  Every entry passes CPT validation, and every stated expected
verdict is cross-checked against both the spectral classifier and the
brute-force orbit oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import DensityMatrix, KrausChannel, StinespringDilation, from_stinespring
from .dilation import EXTREMAL_MAX, ConservedDilation
from .spectral import VERDICT_ERGODIC_NOT_MIXING, VERDICT_MIXING, VERDICT_NOT_ERGODIC

PROVENANCE_LITERATURE = "literature"
PROVENANCE_DERIVED = "derived"
PROVENANCE_RANDOM = "random"
PROVENANCES = (PROVENANCE_LITERATURE, PROVENANCE_DERIVED, PROVENANCE_RANDOM)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SWAP = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


@dataclass(frozen=True)
class ChannelSpec:
    """Catalog entry: a named, parameterized channel and its expected verdict."""

    name: str
    dim: int
    parameters: dict = field(default_factory=dict)
    expected_verdict: str | None = None
    provenance: str = PROVENANCE_DERIVED
    description: str = ""

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}, got {self.provenance!r}")
        if self.provenance != PROVENANCE_RANDOM and self.expected_verdict is None:
            raise ValueError(f"entry {self.name!r}: non-random entries must state an expected verdict")

    def matches(self, name: str, dim: int | None, parameters: dict) -> bool:
        """Whether this entry is `name`, of dimension `dim` (when given), with every given parameter value."""
        close = all(math.isclose(self.parameters.get(k, math.nan), float(v)) for k, v in parameters.items())
        return self.name == name and dim in (None, self.dim) and close

    @property
    def label(self) -> str:
        if not self.parameters:
            return self.name
        rendered = ",".join(f"{k}={self.parameters[k]:g}" for k in sorted(self.parameters))
        return f"{self.name}({rendered})"


def _probability(value: float, name: str, channel: str) -> float:
    p = float(value)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{channel}: parameter {name}={p} must lie in [0, 1]")
    return p


def example_ergodic_channel(label: str = "example-ergodic") -> KrausChannel:
    """Completely decoherent NOT channel: swaps the |0> and |1> populations."""
    k1 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|
    k2 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
    return KrausChannel(dim=2, kraus_ops=(k1, k2), label=label)


def example_mixing_channel(label: str = "example-mixing") -> KrausChannel:
    """Three-level cascade: |2> -> |1> -> |0>, with |0> fixed."""
    k1 = np.zeros((3, 3), dtype=complex)
    k1[1, 2] = 1.0  # |1><2|
    k2 = np.zeros((3, 3), dtype=complex)
    k2[0, 1] = 1.0  # |0><1|
    k3 = np.zeros((3, 3), dtype=complex)
    k3[0, 0] = 1.0  # |0><0|
    return KrausChannel(dim=3, kraus_ops=(k1, k2, k3), label=label)


def depolarizing_channel(p: float, label: str | None = None) -> KrausChannel:
    """``rho -> (1 - p) rho + p I/2`` on a qubit."""
    p = _probability(p, "p", "depolarizing")
    ops = (
        math.sqrt(1.0 - 3.0 * p / 4.0) * np.eye(2, dtype=complex),
        math.sqrt(p) / 2.0 * PAULI_X,
        math.sqrt(p) / 2.0 * PAULI_Y,
        math.sqrt(p) / 2.0 * PAULI_Z,
    )
    return KrausChannel(dim=2, kraus_ops=ops, label=label or f"depolarizing(p={p:g})")


def amplitude_damping_channel(gamma: float, label: str | None = None) -> KrausChannel:
    """Decay toward |0> with per-step excitation loss probability `gamma`."""
    gamma = _probability(gamma, "gamma", "amplitude-damping")
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel(dim=2, kraus_ops=(k0, k1), label=label or f"amplitude-damping(gamma={gamma:g})")


def dephasing_channel(p: float, label: str | None = None) -> KrausChannel:
    """``rho -> (1 - p) rho + p Z rho Z``: shrinks coherences, keeps populations."""
    p = _probability(p, "p", "dephasing")
    ops = (math.sqrt(1.0 - p) * np.eye(2, dtype=complex), math.sqrt(p) * PAULI_Z)
    return KrausChannel(dim=2, kraus_ops=ops, label=label or f"dephasing(p={p:g})")


def unitary_channel(theta: float, label: str | None = None) -> KrausChannel:
    """Conjugation by the phase rotation ``diag(1, e^{i theta})``."""
    u = np.diag([1.0, np.exp(1j * float(theta))]).astype(complex)
    return KrausChannel(dim=2, kraus_ops=(u,), label=label or f"unitary(theta={theta:g})")


def partial_swap_unitary(theta: float) -> np.ndarray:
    """``cos(theta) I + i sin(theta) SWAP`` on two qubits."""
    return math.cos(float(theta)) * np.eye(4, dtype=complex) + 1j * math.sin(float(theta)) * SWAP


def partial_swap_dilation(theta: float) -> StinespringDilation:
    phi = np.array([1.0, 0.0], dtype=complex)
    return StinespringDilation(dim_a=2, dim_b=2, unitary=partial_swap_unitary(theta), bath_state=phi)


def cz_dilation() -> StinespringDilation:
    phi = np.array([1.0, 0.0], dtype=complex)
    return StinespringDilation(dim_a=2, dim_b=2, unitary=CZ.copy(), bath_state=phi)


def random_channel(dim: int, kraus_rank: int, seed: int, label: str | None = None) -> KrausChannel:
    """Seeded Haar-random channel with the given Kraus rank.

    The Kraus operators are the row blocks of a Haar-random isometry from
    the system into system-plus-environment, drawn by QR-decomposing a
    complex Gaussian matrix with the R diagonal phase-fixed so the result
    is deterministic per seed.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not 1 <= kraus_rank <= dim * dim:
        raise ValueError(f"kraus_rank must lie in [1, dim^2] = [1, {dim * dim}], got {kraus_rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim * kraus_rank, dim)) + 1j * rng.standard_normal((dim * kraus_rank, dim))
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    q = q * (diag.conj() / np.abs(diag))
    ops = tuple(q[n * dim : (n + 1) * dim, :].copy() for n in range(kraus_rank))
    return KrausChannel(
        dim=dim,
        kraus_ops=ops,
        label=label or f"random(dim={dim},kraus_rank={kraus_rank},seed={seed})",
    )


def random_state(dim: int, seed: int) -> DensityMatrix:
    """Seeded random full-rank density matrix (normalized Wishart)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(rho / rho.trace().real)


def catalog() -> list[ChannelSpec]:
    """All named fixture channels (deterministic order)."""
    entries = [
        ChannelSpec(
            "example-ergodic",
            2,
            {},
            VERDICT_ERGODIC_NOT_MIXING,
            PROVENANCE_LITERATURE,
            "completely decoherent NOT channel; the orbit of a basis state oscillates forever",
        ),
        ChannelSpec(
            "example-mixing",
            3,
            {},
            VERDICT_MIXING,
            PROVENANCE_LITERATURE,
            "three-level cascade sending every state to |0><0| in finitely many steps",
        ),
        ChannelSpec("depolarizing", 2, {"p": 0.25}, VERDICT_MIXING, PROVENANCE_DERIVED,
                    "uniform contraction of the Bloch ball toward I/2"),
        ChannelSpec("depolarizing", 2, {"p": 0.5}, VERDICT_MIXING, PROVENANCE_DERIVED,
                    "uniform contraction of the Bloch ball toward I/2"),
        ChannelSpec("amplitude-damping", 2, {"gamma": 0.3}, VERDICT_MIXING, PROVENANCE_DERIVED,
                    "energy relaxation toward the pure state |0><0|"),
        ChannelSpec("amplitude-damping", 2, {"gamma": 0.7}, VERDICT_MIXING, PROVENANCE_DERIVED,
                    "energy relaxation toward the pure state |0><0|"),
        ChannelSpec("dephasing", 2, {"p": 0.3}, VERDICT_NOT_ERGODIC, PROVENANCE_DERIVED,
                    "kills coherences but fixes every population; fixed points form a plane"),
        ChannelSpec("dephasing", 2, {"p": 0.8}, VERDICT_NOT_ERGODIC, PROVENANCE_DERIVED,
                    "kills coherences but fixes every population; fixed points form a plane"),
        ChannelSpec("unitary", 2, {"theta": math.pi / 3.0}, VERDICT_NOT_ERGODIC, PROVENANCE_DERIVED,
                    "phase rotation; an isometry of the state space, nothing converges"),
        ChannelSpec("unitary", 2, {"theta": 1.0}, VERDICT_NOT_ERGODIC, PROVENANCE_DERIVED,
                    "phase rotation; an isometry of the state space, nothing converges"),
        ChannelSpec("partial-swap-dilation", 2, {"theta": math.pi / 4.0}, VERDICT_MIXING, PROVENANCE_DERIVED,
                    "system-bath partial swap with a spin-conserving unitary and polarized bath"),
        ChannelSpec("partial-swap-dilation", 2, {"theta": math.pi / 2.0}, VERDICT_MIXING, PROVENANCE_DERIVED,
                    "full swap with the bath: every input is replaced by |0><0| after one step"),
        ChannelSpec("cz-dilation", 2, {}, VERDICT_NOT_ERGODIC, PROVENANCE_DERIVED,
                    "controlled-Z against a |0> bath acts as the identity channel"),
        ChannelSpec("random", 2, {"kraus_rank": 4, "seed": 7}, None, PROVENANCE_RANDOM,
                    "seeded Haar-random channel"),
        ChannelSpec("random", 2, {"kraus_rank": 2, "seed": 11}, None, PROVENANCE_RANDOM,
                    "seeded Haar-random channel"),
        ChannelSpec("random", 3, {"kraus_rank": 3, "seed": 13}, None, PROVENANCE_RANDOM,
                    "seeded Haar-random channel"),
        ChannelSpec("random", 4, {"kraus_rank": 4, "seed": 17}, None, PROVENANCE_RANDOM,
                    "seeded Haar-random channel"),
    ]
    return entries


@dataclass(frozen=True)
class Family:  # one row of `FAMILIES`: how a channel family is built
    dim: int | None  # None when free; the builder then takes it first
    parameters: tuple  # names, in the builder's argument order
    builder: object  # returns a KrausChannel (given ``label=``), or the StinespringDilation of a `dilation` family
    dilation: bool = False


FAMILIES = {
    "example-ergodic": Family(2, (), example_ergodic_channel),
    "example-mixing": Family(3, (), example_mixing_channel),
    "depolarizing": Family(2, ("p",), depolarizing_channel),
    "amplitude-damping": Family(2, ("gamma",), amplitude_damping_channel),
    "dephasing": Family(2, ("p",), dephasing_channel),
    "unitary": Family(2, ("theta",), unitary_channel),
    "partial-swap-dilation": Family(2, ("theta",), partial_swap_dilation, dilation=True),
    "cz-dilation": Family(2, (), cz_dilation, dilation=True),
    "random": Family(None, ("kraus_rank", "seed"), lambda d, r, s, label: random_channel(d, int(r), int(s), label)),
}


def family(name: str) -> Family:
    """The `FAMILIES` entry of `name`."""
    if name not in FAMILIES:
        raise ValueError(f"unknown channel name {name!r}")
    return FAMILIES[name]


def _builder_arguments(name: str, dim: int | None, parameters: dict) -> tuple[Family, list]:
    """`name`'s family and builder arguments, once `dim` (``None``: the family's) and `parameters` fit it."""
    fam = family(name)
    dim = fam.dim if dim is None else dim
    if dim is None:
        raise ValueError(f"{name} channels need an explicit dim")
    if fam.dim not in (None, dim):
        raise ValueError(f"{name} has dimension {fam.dim}, not {dim}")
    for key in (*fam.parameters, *sorted(parameters)):  # missing parameters first, then unknown ones
        if key not in parameters:
            raise ValueError(f"{name} requires parameter {key!r}")
        if key not in fam.parameters:
            raise ValueError(f"{name} takes no parameter {key!r}")
    values = [float(parameters[key]) for key in fam.parameters]
    return fam, values if fam.dim is not None else [dim, *values]


def build(spec: ChannelSpec) -> KrausChannel:
    """Construct the channel a catalog entry (or compatible spec) describes."""
    fam, args = _builder_arguments(spec.name, spec.dim, spec.parameters)
    if fam.dilation:
        return from_stinespring(fam.builder(*args), label=spec.label)
    return fam.builder(*args, label=spec.label)


def build_named(name: str, dim: int | None = None, **params) -> KrausChannel:
    """Build a channel by name, e.g. ``build_named("depolarizing", p=0.5)``; `dim` defaults to the family's."""
    spec = ChannelSpec(name, dim, dict(params), expected_verdict=None, provenance=PROVENANCE_RANDOM)
    return build(spec)


def find_spec(name: str, dim: int | None = None, **params) -> ChannelSpec:
    """First catalog entry matching `name`, `dim` (when given) and every given parameter value."""
    for spec in catalog():
        if spec.matches(name, dim, params):
            return spec
    raise ValueError(f"no catalog entry named {name!r} with parameters {params}")


def dilation_instance(name: str, *, dim: int | None = None, **params) -> ConservedDilation:
    """Conserved-dilation fixture: spin observable ``sigma_z`` on both factors.

    Omitted parameters take the values of the family's first catalog
    entry (``theta = pi/4`` for the partial swap).  The bath state |0> is
    the non-degenerate maximal eigenvector of ``sigma_z``, and both
    catalog unitaries commute with ``sigma_z (x) I + I (x) sigma_z``.
    """
    if name not in FAMILIES or not FAMILIES[name].dilation:
        raise ValueError(f"no conserved-dilation fixture named {name!r}")
    fam, args = _builder_arguments(name, dim, {**find_spec(name).parameters, **params})
    return ConservedDilation(dilation=fam.builder(*args), m_a=PAULI_Z.copy(), m_b=PAULI_Z.copy(), extremal=EXTREMAL_MAX)
