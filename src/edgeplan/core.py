"""Problem data model: instances, uncertainty sets, plans, scenarios.

An instance couples the deterministic system data (prices, capacities,
delays, penalties, budget) with a demand box `[lam_bar, lam_bar+lam_tilde]`
whose deviations are rationed by the integer budget gamma, and a failure
set allowing at most `failure_budget` nodes to go down at once.  All types
freeze their arrays after validation and are safe to share across workers.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from itertools import combinations

import numpy as np

ABS_TOL = 1e-9
VERTEX_CAP = 1_000_000


class InstanceError(ValueError):
    """Instance data is malformed or internally inconsistent."""


class ScenarioError(ValueError):
    """A scenario or uncertainty element violates its set membership."""


class EnumerationCapError(RuntimeError):
    """Vertex enumeration would exceed `VERTEX_CAP`."""


def _frozen(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_nonneg(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise InstanceError(f"{name} must be finite")
    if np.any(arr < 0):
        raise InstanceError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class UncertaintyModel:
    """Budgets of the joint uncertainty set.

    `gamma` caps how many areas may sit at their maximum deviation
    simultaneously (integer, which makes binary deviation vectors
    sufficient for worst-case search); `failure_budget` caps concurrent
    node failures.  `deviation_ratio` records alpha when the deviations
    were constructed as a fixed fraction of nominal demand.
    """

    gamma: int
    failure_budget: int
    deviation_ratio: float | None = None

    def __post_init__(self):
        for name in ("gamma", "failure_budget"):
            value = getattr(self, name)
            if not (float(value).is_integer() and value >= 0):
                raise InstanceError(f"{name} must be a nonnegative integer, got {value}")
            object.__setattr__(self, name, int(value))
        if self.deviation_ratio is not None and not (0 <= self.deviation_ratio < np.inf):
            raise InstanceError("deviation_ratio must be a nonnegative real")


@dataclass(frozen=True)
class ProblemInstance:
    price: np.ndarray           # p[j], currency per resource unit
    capacity: np.ndarray        # C[j], resource units available at node j
    placement_cost: np.ndarray  # f[j], one-off install cost
    storage_cost: np.ndarray    # s[j], recurring storage charge
    initial_placement: np.ndarray  # l0[j] bit: service already present
    delay: np.ndarray           # d[i][j], milliseconds
    beta: float                 # delay penalty per workload-ms
    unmet_penalty: np.ndarray   # P[i], currency per dropped unit
    budget: float               # B
    nominal_demand: np.ndarray  # lam_bar[i]
    demand_deviation: np.ndarray  # lam_tilde[i]
    uncertainty: UncertaintyModel
    dmax: float = math.inf      # eligibility threshold on delay
    eligibility: np.ndarray | None = None  # a[i][j] bit; derived from dmax when absent

    def __post_init__(self):
        object.__setattr__(self, "price", _frozen(self.price))
        object.__setattr__(self, "capacity", _frozen(self.capacity))
        object.__setattr__(self, "placement_cost", _frozen(self.placement_cost))
        object.__setattr__(self, "storage_cost", _frozen(self.storage_cost))
        object.__setattr__(self, "initial_placement", _frozen(self.initial_placement, dtype=np.int8))
        object.__setattr__(self, "delay", _frozen(np.atleast_2d(self.delay)))
        object.__setattr__(self, "unmet_penalty", _frozen(self.unmet_penalty))
        object.__setattr__(self, "nominal_demand", _frozen(self.nominal_demand))
        object.__setattr__(self, "demand_deviation", _frozen(self.demand_deviation))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "budget", float(self.budget))
        object.__setattr__(self, "dmax", float(self.dmax))

        i, j = self.delay.shape
        if i < 1 or j < 1:
            raise InstanceError("need at least one area and one node")
        for name, arr, length in (
            ("price", self.price, j), ("capacity", self.capacity, j),
            ("placement_cost", self.placement_cost, j), ("storage_cost", self.storage_cost, j),
            ("initial_placement", self.initial_placement, j),
            ("unmet_penalty", self.unmet_penalty, i),
            ("nominal_demand", self.nominal_demand, i),
            ("demand_deviation", self.demand_deviation, i),
        ):
            if arr.ndim != 1 or arr.shape[0] != length:
                raise InstanceError(f"{name} must be a vector of length {length}")
        for name, arr in (
            ("price", self.price), ("capacity", self.capacity),
            ("placement_cost", self.placement_cost), ("storage_cost", self.storage_cost),
            ("delay", self.delay), ("unmet_penalty", self.unmet_penalty),
            ("nominal_demand", self.nominal_demand), ("demand_deviation", self.demand_deviation),
        ):
            _check_nonneg(name, arr)
        if not np.all(np.isin(self.initial_placement, (0, 1))):
            raise InstanceError("initial_placement entries must be bits")
        if self.beta < 0 or not math.isfinite(self.beta):
            raise InstanceError("beta must be a nonnegative real")
        if not math.isfinite(self.budget) or self.budget < 0:
            raise InstanceError("budget must be a nonnegative real")
        if math.isnan(self.dmax):
            raise InstanceError("dmax must be a number or infinity")
        if not isinstance(self.uncertainty, UncertaintyModel):
            raise InstanceError("uncertainty must be an UncertaintyModel")
        if self.uncertainty.gamma > i:
            raise InstanceError("gamma cannot exceed the number of areas")
        if self.uncertainty.failure_budget > j:
            raise InstanceError("failure_budget cannot exceed the number of nodes")

        if self.eligibility is None:
            elig = (self.delay <= self.dmax).astype(np.int8)
        else:
            elig = np.atleast_2d(np.asarray(self.eligibility))
            if elig.shape != (i, j):
                raise InstanceError(f"eligibility must have shape ({i}, {j})")
            if not np.all(np.isin(elig, (0, 1))):
                raise InstanceError("eligibility entries must be bits")
            elig = elig.astype(np.int8)
        object.__setattr__(self, "eligibility", _frozen(elig, dtype=np.int8))

    @property
    def num_areas(self) -> int:
        return self.delay.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.delay.shape[1]

    @property
    def node_cost(self) -> np.ndarray:
        """Combined placement charge h[j] = f[j]*(1-l0[j]) + s[j]."""
        return self.placement_cost * (1 - self.initial_placement) + self.storage_cost

    def replace(self, **changes) -> "ProblemInstance":
        """A copy with the given fields swapped (arrays revalidated)."""
        return dataclasses.replace(self, **changes)

    def scaled_penalty(self, psi: float) -> "ProblemInstance":
        """The instance with every unmet-demand penalty multiplied by psi."""
        if not (0 < psi < math.inf):
            raise ValueError(f"psi must be positive and finite, got {psi}")
        return self.replace(unmet_penalty=psi * self.unmet_penalty)

    @property
    def served_capacity(self) -> np.ndarray:
        """a_ij C_j, or 0 on a pair dominated by dropping (beta d_ij > P_i):
        moving its flow to q_i lowers the cost and loosens node j's row, so
        every recourse optimum leaves it at 0.  A tie keeps the pair."""
        dominated = self.beta * self.delay > self.unmet_penalty[:, None]
        return np.where(dominated, 0.0, self.eligibility * self.capacity[None, :])

    def subset(self, areas: int | None = None, nodes: int | None = None) -> "ProblemInstance":
        """The first `areas` areas and first `nodes` nodes, with gamma and
        the failure budget clamped to the smaller sizes."""
        ni = self.num_areas if areas is None else areas
        nj = self.num_nodes if nodes is None else nodes
        if not (float(ni).is_integer() and float(nj).is_integer()):
            raise InstanceError(f"subset sizes must be whole numbers, got {ni}x{nj}")
        ni, nj = int(ni), int(nj)
        if not (1 <= ni <= self.num_areas and 1 <= nj <= self.num_nodes):
            raise InstanceError(f"subset {ni}x{nj} does not fit in "
                                f"{self.num_areas}x{self.num_nodes}")
        u = self.uncertainty
        return self.replace(
            price=self.price[:nj], capacity=self.capacity[:nj],
            placement_cost=self.placement_cost[:nj], storage_cost=self.storage_cost[:nj],
            initial_placement=self.initial_placement[:nj], delay=self.delay[:ni, :nj],
            unmet_penalty=self.unmet_penalty[:ni], nominal_demand=self.nominal_demand[:ni],
            demand_deviation=self.demand_deviation[:ni], eligibility=self.eligibility[:ni, :nj],
            uncertainty=dataclasses.replace(u, gamma=min(u.gamma, ni),
                                            failure_budget=min(u.failure_budget, nj)))


@dataclass(frozen=True)
class FirstStagePlan:
    """First-stage decision: where the service runs (t) and units bought (y)."""

    placement: np.ndarray   # t[j] bit
    procurement: np.ndarray  # y[j] units

    def __post_init__(self):
        object.__setattr__(self, "placement", _frozen(self.placement, dtype=np.int8))
        object.__setattr__(self, "procurement", _frozen(self.procurement))
        if self.placement.ndim != 1 or self.procurement.shape != self.placement.shape:
            raise InstanceError("placement and procurement must be vectors of equal length")
        if not np.all(np.isin(self.placement, (0, 1))):
            raise InstanceError("placement entries must be bits")
        _check_nonneg("procurement", self.procurement)

    def live_stock(self, instance: ProblemInstance) -> np.ndarray:
        """Units node j can serve while it is up: min(y_j, C_j t_j)."""
        return np.minimum(self.procurement, instance.capacity * self.placement)

    def validate(self, instance: ProblemInstance) -> None:
        """Check the coupling y <= C t and the budget row (y may be fractional)."""
        if self.placement.shape[0] != instance.num_nodes:
            raise InstanceError("plan length does not match the instance")
        tol = 1e-6
        if np.any(self.procurement > instance.capacity * self.placement + tol):
            raise InstanceError("procurement exceeds placed capacity")
        cost = provisioning_cost(instance, self)
        if cost > instance.budget + tol * max(1.0, instance.budget):
            raise InstanceError(f"plan cost {cost} exceeds budget {instance.budget}")


@dataclass(frozen=True)
class Scenario:
    """One uncertainty realization: demand vector and failure bits."""

    demand: np.ndarray
    failures: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "demand", _frozen(self.demand))
        object.__setattr__(self, "failures", _frozen(self.failures, dtype=np.int8))
        if self.demand.ndim != 1 or self.failures.ndim != 1:
            raise ScenarioError("scenario fields must be vectors")
        _check_nonneg("demand", self.demand)
        if not np.all(np.isin(self.failures, (0, 1))):
            raise ScenarioError("failures entries must be bits")

    def key(self) -> tuple:
        """Hashable identity used for pool-membership tests."""
        return (tuple(np.round(self.demand, 9)), tuple(int(z) for z in self.failures))


@dataclass(frozen=True)
class RecourseOutcome:
    """Second-stage answer: allocation x, unmet demand q, and its cost."""

    allocation: np.ndarray
    unmet: np.ndarray
    second_stage_cost: float

    def __post_init__(self):
        object.__setattr__(self, "allocation", _frozen(np.atleast_2d(self.allocation)))
        object.__setattr__(self, "unmet", _frozen(self.unmet))
        object.__setattr__(self, "second_stage_cost", float(self.second_stage_cost))


def demand_from_g(instance: ProblemInstance, g) -> np.ndarray:
    """Demand vector lam_bar + g*lam_tilde for a deviation vector g in the budgeted box."""
    g = np.asarray(g, dtype=float)
    if g.shape != (instance.num_areas,):
        raise ScenarioError(f"g must have length {instance.num_areas}")
    if np.any(g < -ABS_TOL) or np.any(g > 1 + ABS_TOL):
        raise ScenarioError("g outside the unit box")
    if g.sum() > instance.uncertainty.gamma + ABS_TOL:
        raise ScenarioError(
            f"sum(g)={g.sum()} exceeds gamma={instance.uncertainty.gamma}")
    return instance.nominal_demand + g * instance.demand_deviation


def count_vertices(uncertainty: UncertaintyModel, num_areas: int, num_nodes: int) -> int:
    """Closed-form vertex count: binomial sums over both budgets, multiplied."""
    demand = sum(math.comb(num_areas, k) for k in range(min(uncertainty.gamma, num_areas) + 1))
    failure = sum(math.comb(num_nodes, k) for k in range(min(uncertainty.failure_budget, num_nodes) + 1))
    return demand * failure


def enumerate_vertices(uncertainty: UncertaintyModel, num_areas: int,
                       num_nodes: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """All (g, z) vertices of the joint uncertainty set, as binary vectors.

    Binary g suffices because the demand budget is integral.  Refuses to
    materialize more than `VERTEX_CAP` pairs.
    """
    total = count_vertices(uncertainty, num_areas, num_nodes)
    if total > VERTEX_CAP:
        raise EnumerationCapError(
            f"enumeration infeasible: {total} vertices exceed the cap of {VERTEX_CAP}")

    def binary_budget(n: int, budget: int) -> list[np.ndarray]:
        out = []
        for k in range(min(budget, n) + 1):
            for idx in combinations(range(n), k):
                v = np.zeros(n)
                v[list(idx)] = 1.0
                out.append(v)
        return out

    gs = binary_budget(num_areas, uncertainty.gamma)
    zs = binary_budget(num_nodes, uncertainty.failure_budget)
    return [(g, z) for g in gs for z in zs]


def sample_failures(num_nodes: int, budget: int, size: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from {z binary : sum(z) <= budget}, one row per draw.

    Uniform over the whole set, so a failure count k appears with
    probability proportional to C(num_nodes, k); the empty vector is a
    legitimate draw.
    """
    budget = min(budget, num_nodes)
    weights = np.array([math.comb(num_nodes, k) for k in range(budget + 1)], dtype=float)
    counts = rng.choice(budget + 1, size=size, p=weights / weights.sum())
    out = np.zeros((size, num_nodes), dtype=np.int8)
    for row, k in enumerate(counts):
        if k:
            out[row, rng.choice(num_nodes, size=k, replace=False)] = 1
    return out


def provisioning_cost(instance: ProblemInstance, plan: FirstStagePlan) -> float:
    """First-stage spend: unit prices times procurement plus node charges."""
    return float(instance.price @ plan.procurement + instance.node_cost @ plan.placement)


def second_stage_cost(instance: ProblemInstance, allocation: np.ndarray,
                      unmet: np.ndarray) -> float:
    """Penalty plus delay cost of a recourse answer."""
    return float(instance.unmet_penalty @ unmet
                 + instance.beta * np.sum(instance.delay * allocation))


# ---------------------------------------------------------------------------
# serialization

def instance_to_json(instance: ProblemInstance) -> dict:
    doc = {
        "areas": instance.num_areas,
        "nodes": instance.num_nodes,
        "prices": instance.price.tolist(),
        "capacities": instance.capacity.tolist(),
        "placement_costs": instance.placement_cost.tolist(),
        "storage_costs": instance.storage_cost.tolist(),
        "initial_placement": instance.initial_placement.tolist(),
        "delays": instance.delay.ravel().tolist(),
        "beta": instance.beta,
        "unmet_penalty": instance.unmet_penalty.tolist(),
        "budget": instance.budget,
        "nominal_demand": instance.nominal_demand.tolist(),
        "gamma": instance.uncertainty.gamma,
        "failure_budget": instance.uncertainty.failure_budget,
    }
    ratio = instance.uncertainty.deviation_ratio
    if ratio is not None and np.allclose(instance.demand_deviation,
                                         ratio * instance.nominal_demand, atol=0, rtol=0):
        doc["deviation"] = ratio
    else:
        doc["deviation"] = instance.demand_deviation.tolist()
    if math.isfinite(instance.dmax):
        doc["dmax"] = instance.dmax
    derived = (instance.delay <= instance.dmax).astype(np.int8)
    if not np.array_equal(derived, instance.eligibility):
        doc["eligibility"] = instance.eligibility.ravel().tolist()
    return doc


def instance_from_json(doc: dict) -> ProblemInstance:
    def read(key: str, convert, *default):
        """`convert(doc[key])`, the key falling back to `default` when one is
        given; a value that does not convert names its key."""
        raw = doc.get(key, *default) if default else doc[key]
        try:
            return convert(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InstanceError(f"'{key}': {exc}") from exc

    def count(raw) -> int:
        value = float(raw)
        if not (value.is_integer() and value >= 1):
            raise InstanceError(f"must be a positive whole number, got {raw}")
        return int(value)

    i, j = read("areas", count), read("nodes", count)

    def vec(key: str, length: int, *default) -> np.ndarray:
        def convert(raw):
            if np.isscalar(raw):
                return np.full(length, float(raw))
            arr = np.asarray(raw, dtype=float)
            if arr.shape != (length,):
                raise InstanceError(f"must have length {length}, got shape {arr.shape}")
            return arr
        return read(key, convert, *default)

    def matrix(raw) -> np.ndarray:
        arr = np.asarray(raw, dtype=float)
        if arr.shape == (i, j):
            return arr
        if arr.shape == (i * j,):
            return arr.reshape(i, j)
        raise InstanceError(f"must be {i}x{j} (nested or row-major flat)")

    nominal = vec("nominal_demand", i)
    ratio = read("deviation", lambda raw: float(raw) if np.isscalar(raw) else None)
    deviation = vec("deviation", i) if ratio is None else ratio * nominal

    return ProblemInstance(
        price=vec("prices", j),
        capacity=vec("capacities", j),
        placement_cost=vec("placement_costs", j),
        storage_cost=vec("storage_costs", j, 0.0),
        initial_placement=vec("initial_placement", j, 0.0),
        delay=read("delays", matrix),
        beta=read("beta", float),
        unmet_penalty=vec("unmet_penalty", i),
        budget=read("budget", float),
        nominal_demand=nominal,
        demand_deviation=deviation,
        uncertainty=UncertaintyModel(read("gamma", float), read("failure_budget", float),
                                     deviation_ratio=ratio),
        dmax=read("dmax", lambda raw: math.inf if raw is None else float(raw), None),
        eligibility=read("eligibility", lambda raw: None if raw is None else matrix(raw), None),
    )


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file plus rename so readers never observe partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_value(value):
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def canonical_json(doc) -> str:
    """The one JSON rule of every artifact: sorted keys, two-space indent,
    numpy scalars as Python numbers and non-finite floats as their repr."""
    return json.dumps(_json_value(doc), indent=2, sort_keys=True) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else f"{value:.12g}"
    return str(value)


def csv_text(header, rows) -> str:
    """The one CSV rule of every artifact: a float at 12 significant
    digits, NaN as an empty cell, any other value as `str()`, and RFC 4180
    quoting of a cell that holds a comma, a double quote or a line break."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def save_instance(instance: ProblemInstance, path: str) -> None:
    atomic_write_text(path, canonical_json(instance_to_json(instance)))


def _read_json(path: str, parse):
    """Decode the JSON object in `path` and parse it; a malformed document
    or field becomes an `InstanceError` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError(f"{path}: document must be a JSON object")
    try:
        return parse(doc)
    except KeyError as exc:
        raise InstanceError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"{path}: {exc}") from exc


def load_instance(path: str) -> ProblemInstance:
    return _read_json(path, instance_from_json)


def plan_from_json(doc: dict) -> tuple[FirstStagePlan, dict]:
    plan = FirstStagePlan(np.asarray(doc["t"]), np.asarray(doc["y"], dtype=float))
    meta = {k: v for k, v in doc.items() if k not in ("t", "y")}
    return plan, meta


def save_plan(plan: FirstStagePlan, path: str, *, method: str, objective: float, **extras) -> None:
    doc = {"t": plan.placement.tolist(), "y": plan.procurement.tolist(), "method": method,
           "objective": float(objective)}
    atomic_write_text(path, canonical_json({**doc, **extras}))


def load_plan(path: str) -> tuple[FirstStagePlan, dict]:
    return _read_json(path, plan_from_json)
