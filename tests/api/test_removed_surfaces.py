"""The surfaces 3.0.0, 4.0.0, 5.0.0, 6.0.0, 7.0.0 and 8.0.0 removed fail loudly.

3.0.0 deleted the 1.x→2.0 deprecation shims and the baseline toggles (see the
README migration table); the live SAT session's encoding switches
(``IncrementalSATSession(cegar=)``, ``IncrementalEncoder(lazy_violations=)``)
went after it, when the session's encoding became a single path, and then
the one-shot engine's (``SATWorldSearch(cegar=, component_counting=)``,
``encode_world_search(lazy_violations=)``, the matching engine options and
``LazyViolationOracle``), when both paths came to share one encoder.  So did
``IndexedFactStore(intern_values=)``.  The solver's test-only helpers
``solve_cnf`` and ``brute_force_satisfiable`` moved out of
:mod:`repro.reductions.dpll` into the test suite.

4.0.0 deleted the process-parallel engine: ``engine="parallel"`` names no
registered engine, ``repro.search.parallel`` and its exports
(``ParallelWorldSearch``, ``ParallelSearchStats``, ``resolve_workers``,
``shutdown_pools``) are gone, and so is the ``workers=`` keyword it needed:
``EngineConfig`` has two fields (``name``, ``options``), and no front-end,
decider or engine factory takes ``workers``.  ``WorldSearch(order=,
pool_overrides=)``, which only the shard driver used, went with it.

5.0.0 gave the engines one contract.  ``EngineCapabilities`` keeps the four
flags that choose a path: ``counts_natively`` (``model_count`` always calls
``count_worlds()``), ``accepts_checker`` (every factory receives the ambient
checker) and ``supports_incremental`` (the facade's live SAT session serves
the built-in SAT factory only) went.  So did ``NaiveSearchStats`` and
``SATSearchStats``: every engine fills one ``SearchStats``.

6.0.0 dropped ``EngineCapabilities.symmetry_breaking`` (every factory
receives ``break_symmetry`` and may ignore it) and gave the service one
executor, a thread pool running every miss on the session's facade: the
``executor`` keyword of ``DatabasePool`` and ``ServiceConfig``, the
``executor`` config key and ``--executor`` went, and so did
``Database.cache_store`` and ``repro.service.problems.dependencies``, the
pool's copy of the facade's cache rules.

7.0.0 took the plugin registries out of the service: the ``auth``,
``rate_limit`` and ``result_backend`` kinds with their classes and
protocols, ``PluginSelection`` and the ``(kind, name)`` registry functions
(the workload registry stays as ``register_workload``, ``get_workload`` and
``workload_names``), and ``repro.service.fingerprint``.  ``auth_token`` and
an integer ``rate_limit`` replace the config keys; ``auth`` and
``result_backend`` are unknown keys now, and a ``rate_limit`` object is
rejected.

8.0.0 deleted what nothing in the library called: the
``repro.relational.algebra`` module, ``instance_index`` with the per-instance
fact-index cache it filled (``GroundInstance.fact_indexes``), the solver's
test-only entry points (``DPLLSolver.enumerate_models``,
``CNFFormula.satisfying_assignment`` and the ``solver=None`` default of
``iter_solver_models``), the two wrappers of ``satisfies_all``
(``is_partially_closed``, ``is_partially_closed_world``), the
``registry.WorldSearchLike`` alias, ``Database.default_engine`` and a set of
helpers on the relational, c-table, query, constraint, utility and lock
classes.

A removed keyword must
raise ``TypeError`` and a removed attribute ``AttributeError``: neither may be
absorbed by a ``**kwargs`` pass-through or an attribute fallback, which would
let a 2.x caller keep running while silently getting the one remaining path.
"""

from __future__ import annotations

from collections.abc import Iterator

import pytest

import repro.completeness
import repro.ctables
import repro.relational
import repro.search
import repro.service
import repro.service.config
import repro.service.plugins
import repro.service.problems
import repro.utils
from repro.reductions import dpll
from repro.search import cnf_encoding, registry
from repro.api import Database, EngineConfig
from repro.completeness import (
    certain,
    consistency,
    extensions,
    ground,
    strong,
    viable,
    weak,
)
from repro.completeness.minp import (
    is_minimal_complete,
    is_minimal_ground_complete,
    is_minimal_strongly_complete,
    is_minimal_viably_complete,
    is_minimal_weakly_complete,
    is_minimal_weakly_complete_cq,
)
from repro.completeness.rcdp import is_relatively_complete
from repro.completeness.rcqp import rcqp, rcqp_bounded_search
from repro.completeness.weak import weak_completeness_report
from repro.constraints import containment, dependencies
from repro.constraints.dependencies import FunctionalDependency
from repro.ctables import possible_worlds
from repro.ctables.conditions import Condition
from repro.ctables.ctable import CTable
from repro.ctables.possible_worlds import default_active_domain, has_model, models
from repro.exceptions import SearchError
from repro.queries.atoms import atom
from repro.queries import terms
from repro.queries.cq import ConjunctiveQuery, cq
from repro.queries.efo import ExistentialPositiveQuery
from repro.queries.fo import FirstOrderQuery, NativeQuery
from repro.queries.fp import FixpointQuery
from repro.queries.terms import var
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.reductions.dpll import DPLLSolver
from repro.reductions.sat import CNFFormula
from repro.relational import indexing
from repro.relational.domains import BOOLEAN_DOMAIN
from repro.relational.instance import GroundInstance, Relation, instance
from repro.relational.master import MasterData
from repro.relational.schema import RelationSchema, database_schema
from repro.search import propagation
from repro.search.engine import WorldSearch
from repro.relational.indexing import IndexedFactStore
from repro.search.cnf_encoding import IncrementalEncoder, encode_world_search
from repro.search.propagation import ConstraintChecker
from repro.search import naive, sat_engine
from repro.search.registry import (
    EngineCapabilities,
    SearchTemplate,
    engine_names,
    get_engine,
)
from repro.search.sat_engine import IncrementalSATSession, SATWorldSearch
from repro.exceptions import ServiceError
from repro.service import DatabasePool, ServiceConfig
from repro.service.__main__ import build_config
from repro.service.locks import ReadWriteLock
from repro.utils import itertools_ext, naming
from repro.workloads.generator import inequality_chain_workload
from repro.workloads.patients import build_patient_scenario

x, k, v = var("x"), var("k"), var("v")


@pytest.fixture(scope="module")
def weak_decision():
    scenario = build_patient_scenario()
    return weak_completeness_report(
        scenario.figure1, scenario.q4, scenario.master, scenario.constraints
    )


@pytest.fixture(scope="module")
def rcqp_decision():
    bool_schema = database_schema(RelationSchema("R", [("A", BOOLEAN_DOMAIN)]))
    master = MasterData(
        database_schema(RelationSchema("Rm", [("A", BOOLEAN_DOMAIN)])),
        {"Rm": [(0,), (1,)]},
    )
    query = cq("Q", [x], atoms=[atom("R", x)], comparisons=[])
    return rcqp_bounded_search(query, bool_schema, master, [], max_size=1)


@pytest.mark.parametrize(
    ("decision_fixture", "attribute"),
    [
        ("weak_decision", "is_weakly_complete"),
        ("weak_decision", "certain_over_models"),
        ("weak_decision", "certain_over_extensions"),
        ("weak_decision", "no_world_has_extensions"),
        ("rcqp_decision", "found"),
        ("rcqp_decision", "instances_examined"),
    ],
)
def test_decision_shim_properties_are_gone(request, decision_fixture, attribute):
    decision = request.getfixturevalue(decision_fixture)
    with pytest.raises(AttributeError):
        getattr(decision, attribute)
    # The value the shim used to forward is still on the report.
    assert hasattr(decision.details, attribute)


def test_resolve_engine_is_gone():
    assert not hasattr(possible_worlds, "resolve_engine")
    with pytest.raises(ImportError):
        from repro.ctables import resolve_engine  # noqa: F401
    assert "resolve_engine" not in getattr(repro.ctables, "__all__", ())


def test_checker_modes_are_gone():
    assert not hasattr(propagation, "CHECKER_MODES")
    assert not hasattr(repro.search, "CHECKER_MODES")


def test_lazy_violation_oracle_is_gone():
    assert not hasattr(cnf_encoding, "LazyViolationOracle")
    assert not hasattr(repro.search, "LazyViolationOracle")


@pytest.mark.parametrize("name", ["solve_cnf", "brute_force_satisfiable"])
def test_solver_test_helpers_are_gone(name):
    assert not hasattr(dpll, name)


def _workload():
    return inequality_chain_workload(2, close_cycle=False)


def _adom(workload):
    return default_active_domain(
        workload.cinstance, workload.master, workload.constraints
    )


REMOVED_KEYWORDS = {
    "ConstraintChecker(mode=)": lambda w: ConstraintChecker(
        w.master, w.constraints, mode="full"
    ),
    "ConstraintChecker(indexed=)": lambda w: ConstraintChecker(
        w.master, w.constraints, indexed=False
    ),
    "Database(checker_mode=)": lambda w: Database(
        w.cinstance, w.master, w.constraints, checker_mode="full"
    ),
    "Database(checker_indexed=)": lambda w: Database(
        w.cinstance, w.master, w.constraints, checker_indexed=False
    ),
    "DPLLSolver(learning=)": lambda w: DPLLSolver([[1, 2]], learning="decision"),
    "WorldSearch(adaptive=)": lambda w: WorldSearch(
        w.cinstance, w.master, w.constraints, _adom(w), adaptive=True
    ),
    "SATWorldSearch(learning=)": lambda w: SATWorldSearch(
        w.cinstance, w.master, w.constraints, learning="decision"
    ),
    "IncrementalSATSession(learning=)": lambda w: IncrementalSATSession(
        w.cinstance, w.master, w.constraints, _adom(w), learning="decision"
    ),
    "IncrementalSATSession(cegar=)": lambda w: IncrementalSATSession(
        w.cinstance, w.master, w.constraints, _adom(w), cegar=True
    ),
    "IncrementalEncoder(lazy_violations=)": lambda w: IncrementalEncoder(
        w.cinstance, w.master, w.constraints, _adom(w), lazy_violations=True
    ),
    "SATWorldSearch(cegar=)": lambda w: SATWorldSearch(
        w.cinstance, w.master, w.constraints, cegar=True
    ),
    "SATWorldSearch(component_counting=)": lambda w: SATWorldSearch(
        w.cinstance, w.master, w.constraints, component_counting=True
    ),
    "encode_world_search(lazy_violations=)": lambda w: encode_world_search(
        w.cinstance, w.master, w.constraints, lazy_violations=True
    ),
    "IndexedFactStore(intern_values=)": lambda w: IndexedFactStore(
        ["R"], intern_values=False
    ),
    "EngineConfig(workers=)": lambda w: EngineConfig("propagating", workers=2),
    "WorldSearch(order=)": lambda w: WorldSearch(
        w.cinstance, w.master, w.constraints, _adom(w), order=()
    ),
    "WorldSearch(pool_overrides=)": lambda w: WorldSearch(
        w.cinstance, w.master, w.constraints, _adom(w), pool_overrides={}
    ),
    "EngineCapabilities(counts_natively=)": lambda w: EngineCapabilities(
        counts_natively=True
    ),
    "EngineCapabilities(accepts_checker=)": lambda w: EngineCapabilities(
        accepts_checker=False
    ),
    "EngineCapabilities(supports_incremental=)": lambda w: EngineCapabilities(
        supports_incremental=True
    ),
    "EngineCapabilities(symmetry_breaking=)": lambda w: EngineCapabilities(
        symmetry_breaking=True
    ),
    "DatabasePool(executor=)": lambda w: DatabasePool(executor="thread"),
    "ServiceConfig(executor=)": lambda w: ServiceConfig(executor="thread"),
    "ServiceConfig(auth=)": lambda w: ServiceConfig(auth="none"),
    "ServiceConfig(result_backend=)": lambda w: ServiceConfig(result_backend="memory"),
}


@pytest.mark.parametrize("build", REMOVED_KEYWORDS.values(), ids=REMOVED_KEYWORDS)
def test_removed_keywords_raise_type_error(build):
    with pytest.raises(TypeError):
        build(_workload())


def test_the_executor_config_key_is_unknown():
    with pytest.raises(ServiceError, match=r"unknown service config keys \['executor'\]"):
        ServiceConfig.from_dict({"executor": "thread"})


def test_the_executor_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as raised:
        build_config(["--executor", "thread"])
    assert raised.value.code == 2
    assert "--executor" in capsys.readouterr().err


#: The service-plugin surfaces 7.0.0 removed, by module.
REMOVED_PLUGIN_NAMES = {
    repro.service: (
        "PluginSelection",
        "register_service_plugin",
        "get_service_plugin",
        "service_plugin_names",
        "canonical_fingerprint",
        "canonical_json",
    ),
    repro.service.config: ("PluginSelection",),
    repro.service.plugins: (
        "PLUGIN_KINDS",
        "register_service_plugin",
        "get_service_plugin",
        "service_plugin_names",
        "AuthHook",
        "RateLimiter",
        "ResultBackend",
        "AllowAllAuth",
        "TokenAuth",
        "UnlimitedRateLimiter",
        "WindowRateLimiter",
        "MemoryResultBackend",
        "NullResultBackend",
    ),
}


@pytest.mark.parametrize(
    ("module", "name"),
    [(module, name) for module, names in REMOVED_PLUGIN_NAMES.items() for name in names],
    ids=[
        f"{module.__name__}.{name}"
        for module, names in REMOVED_PLUGIN_NAMES.items()
        for name in names
    ],
)
def test_the_service_plugin_surfaces_are_gone(module, name):
    with pytest.raises(AttributeError):
        getattr(module, name)
    assert name not in getattr(module, "__all__", ())


def test_the_fingerprint_module_is_gone():
    with pytest.raises(ImportError):
        import repro.service.fingerprint  # noqa: F401


@pytest.mark.parametrize("key", ["auth", "result_backend"])
def test_the_plugin_config_keys_are_unknown(key):
    with pytest.raises(ServiceError, match=rf"unknown service config keys \['{key}'\]"):
        ServiceConfig.from_dict({key: {"name": "none"}})


@pytest.mark.parametrize(
    "value",
    [
        {"name": "window", "options": {"max_requests": 5, "window_seconds": 60.0}},
        "none",
    ],
    ids=["object", "name"],
)
def test_the_rate_limit_plugin_form_is_rejected(value):
    with pytest.raises(ServiceError, match="'rate_limit' must be int or null"):
        ServiceConfig.from_dict({"rate_limit": value})


@pytest.mark.parametrize(
    ("owner", "name"),
    [(Database, "cache_store"), (repro.service.problems, "dependencies")],
    ids=["Database.cache_store", "problems.dependencies"],
)
def test_the_pool_copy_of_the_cache_rules_is_gone(owner, name):
    with pytest.raises(AttributeError):
        getattr(owner, name)


@pytest.mark.parametrize(
    ("engine", "options"),
    [
        ("sat", {"learning": "decision"}),
        ("propagating", {"adaptive": True}),
        ("sat", {"cegar": True}),
        ("sat", {"component_counting": True}),
        ("propagating", {"order": ()}),
        ("propagating", {"pool_overrides": {}}),
    ],
    ids=[
        "sat-learning", "propagating-adaptive", "sat-cegar", "sat-component-counting",
        "propagating-order", "propagating-pool-overrides",
    ],
)
def test_removed_engine_options_raise_type_error(engine, options):
    workload = _workload()
    db = Database(workload.cinstance, workload.master, workload.constraints)
    with pytest.raises(TypeError):
        db.is_consistent(engine=EngineConfig(engine, options=options))


def test_parallel_engine_is_gone():
    workload = _workload()
    assert "parallel" not in engine_names()
    db = Database(workload.cinstance, workload.master, workload.constraints)
    for call in (
        lambda: has_model(
            workload.cinstance, workload.master, workload.constraints, engine="parallel"
        ),
        lambda: db.count(engine="parallel"),
    ):
        with pytest.raises(SearchError) as raised:
            call()
        for name in ("propagating", "sat", "naive"):
            assert repr(name) in str(raised.value)


@pytest.mark.parametrize(
    "name",
    ["ParallelWorldSearch", "ParallelSearchStats", "resolve_workers", "shutdown_pools"],
)
def test_parallel_exports_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(repro.search, name)
    assert name not in repro.search.__all__


def test_parallel_module_is_gone():
    with pytest.raises(ImportError):
        import repro.search.parallel  # noqa: F401


@pytest.mark.parametrize(
    ("module", "name"),
    [(naive, "NaiveSearchStats"), (sat_engine, "SATSearchStats")],
)
def test_per_engine_stats_classes_are_gone(module, name):
    for owner in (repro.search, module):
        with pytest.raises(AttributeError):
            getattr(owner, name)
    assert name not in repro.search.__all__


#: A query over the workload's ``Record(key, value)`` relation.
RECORDS = cq("records", [k, v], atoms=[atom("Record", k, v)])


def _ground(workload):
    return instance(workload.schema, Record=[("k0", 0)])


#: Every public front-end and decider that took ``workers=`` before 4.0.0,
#: called on the small workload with ``extra`` keywords added.
FRONT_ENDS = {
    "models": lambda w, **extra: models(w.cinstance, w.master, w.constraints, **extra),
    "models_with_valuations": lambda w, **extra: possible_worlds.models_with_valuations(
        w.cinstance, w.master, w.constraints, **extra
    ),
    "has_model": lambda w, **extra: has_model(
        w.cinstance, w.master, w.constraints, **extra
    ),
    "model_count": lambda w, **extra: possible_worlds.model_count(
        w.cinstance, w.master, w.constraints, **extra
    ),
    "search_template": lambda w, **extra: possible_worlds.search_template(
        w.cinstance, w.master, w.constraints, _adom(w), **extra
    ),
    "certain_answer_over_models": lambda w, **extra: certain.certain_answer_over_models(
        w.cinstance, RECORDS, w.master, w.constraints, **extra
    ),
    "certain_answer_over_extensions": (
        lambda w, **extra: certain.certain_answer_over_extensions(
            w.cinstance, RECORDS, w.master, w.constraints, **extra
        )
    ),
    "is_consistent": lambda w, **extra: consistency.is_consistent(
        w.cinstance, w.master, w.constraints, **extra
    ),
    "consistent_world": lambda w, **extra: consistency.consistent_world(
        w.cinstance, w.master, w.constraints, **extra
    ),
    "is_extensible": lambda w, **extra: consistency.is_extensible(
        _ground(w), w.master, w.constraints, **extra
    ),
    "extension_witness": lambda w, **extra: consistency.extension_witness(
        _ground(w), w.master, w.constraints, **extra
    ),
    "single_tuple_extensions": lambda w, **extra: extensions.single_tuple_extensions(
        _ground(w), w.master, w.constraints, _adom(w), **extra
    ),
    "has_partially_closed_extension": (
        lambda w, **extra: extensions.has_partially_closed_extension(
            _ground(w), w.master, w.constraints, _adom(w), **extra
        )
    ),
    "tableau_extensions": lambda w, **extra: extensions.tableau_extensions(
        _ground(w), RECORDS, w.master, w.constraints, _adom(w), **extra
    ),
    "bounded_extensions": lambda w, **extra: extensions.bounded_extensions(
        _ground(w), w.master, w.constraints, _adom(w), **extra
    ),
    "SingleTupleExtensions": lambda w, **extra: extensions.SingleTupleExtensions(
        w.schema, w.master, w.constraints, _adom(w), **extra
    ).over(_ground(w)),
    "TableauExtensions": lambda w, **extra: extensions.TableauExtensions(
        RECORDS, w.schema, w.master, w.constraints, _adom(w), **extra
    ).over(_ground(w)),
    "find_ground_incompleteness_witness": (
        lambda w, **extra: ground.find_ground_incompleteness_witness(
            _ground(w), RECORDS, w.master, w.constraints, **extra
        )
    ),
    "is_ground_complete": lambda w, **extra: ground.is_ground_complete(
        _ground(w), RECORDS, w.master, w.constraints, **extra
    ),
    "is_ground_complete_bounded": lambda w, **extra: ground.is_ground_complete_bounded(
        _ground(w), RECORDS, w.master, w.constraints, **extra
    ),
    "GroundCompletenessCheck": lambda w, **extra: ground.GroundCompletenessCheck(
        RECORDS, w.schema, w.master, w.constraints, _adom(w), **extra
    ).witness(_ground(w)),
    "is_minimal_ground_complete": lambda w, **extra: is_minimal_ground_complete(
        _ground(w), RECORDS, w.master, w.constraints, **extra
    ),
    "is_minimal_strongly_complete": (
        lambda w, **extra: is_minimal_strongly_complete(
            w.cinstance, RECORDS, w.master, w.constraints, **extra
        )
    ),
    "is_minimal_viably_complete": lambda w, **extra: is_minimal_viably_complete(
        w.cinstance, RECORDS, w.master, w.constraints, **extra
    ),
    "is_minimal_weakly_complete": lambda w, **extra: is_minimal_weakly_complete(
        w.cinstance, RECORDS, w.master, w.constraints, **extra
    ),
    "is_minimal_weakly_complete_cq": (
        lambda w, **extra: is_minimal_weakly_complete_cq(
            w.cinstance, RECORDS, w.master, w.constraints, **extra
        )
    ),
    "is_minimal_complete": lambda w, **extra: is_minimal_complete(
        w.cinstance, RECORDS, w.master, w.constraints, **extra
    ),
    "is_relatively_complete": lambda w, **extra: is_relatively_complete(
        w.cinstance, RECORDS, w.master, w.constraints, **extra
    ),
    "rcqp_bounded_search": lambda w, **extra: rcqp_bounded_search(
        RECORDS, w.schema, w.master, w.constraints, max_size=1, **extra
    ),
    "rcqp": lambda w, **extra: rcqp(
        RECORDS, w.schema, w.master, w.constraints, max_size=1, **extra
    ),
    "find_strong_incompleteness_witness": (
        lambda w, **extra: strong.find_strong_incompleteness_witness(
            w.cinstance, RECORDS, w.master, w.constraints, **extra
        )
    ),
    "is_strongly_complete": lambda w, **extra: strong.is_strongly_complete(
        w.cinstance, RECORDS, w.master, w.constraints, **extra
    ),
    "is_strongly_complete_bounded": (
        lambda w, **extra: strong.is_strongly_complete_bounded(
            w.cinstance, RECORDS, w.master, w.constraints, **extra
        )
    ),
    "find_viable_witness": lambda w, **extra: viable.find_viable_witness(
        w.cinstance, RECORDS, w.master, w.constraints, **extra
    ),
    "is_viably_complete": lambda w, **extra: viable.is_viably_complete(
        w.cinstance, RECORDS, w.master, w.constraints, **extra
    ),
    "is_viably_complete_bounded": lambda w, **extra: viable.is_viably_complete_bounded(
        w.cinstance, RECORDS, w.master, w.constraints, **extra
    ),
    "weak_completeness_report": lambda w, **extra: weak.weak_completeness_report(
        w.cinstance, RECORDS, w.master, w.constraints, **extra
    ),
    "is_weakly_complete": lambda w, **extra: weak.is_weakly_complete(
        w.cinstance, RECORDS, w.master, w.constraints, **extra
    ),
    "is_weakly_complete_bounded": lambda w, **extra: weak.is_weakly_complete_bounded(
        w.cinstance, RECORDS, w.master, w.constraints, **extra
    ),
}

#: The engine-building surfaces of the registry that took ``workers=``:
#: ``EngineSpec.create``, ``SearchTemplate`` and the built-in factories.
ENGINE_BUILDERS = {
    "EngineSpec.create": lambda w, **extra: get_engine("propagating").create(
        w.cinstance, w.master, w.constraints, _adom(w), **extra
    ),
    "SearchTemplate": lambda w, **extra: SearchTemplate(
        get_engine("propagating"), w.cinstance, w.master, w.constraints, _adom(w),
        **extra,
    ),
    **{
        f"{name}-factory": (
            lambda w, name=name, **extra: get_engine(name).factory(
                w.cinstance, w.master, w.constraints, _adom(w),
                checker=None, break_symmetry=False, **extra,
            )
        )
        for name in ("propagating", "sat", "naive")
    },
}


def _drain(result):
    """Run a lazy front-end to its end (its errors surface on iteration)."""
    return list(result) if isinstance(result, Iterator) else result


@pytest.mark.parametrize(
    "call",
    [*FRONT_ENDS.values(), *ENGINE_BUILDERS.values()],
    ids=[*FRONT_ENDS, *ENGINE_BUILDERS],
)
def test_workers_keyword_is_gone(call):
    # The keyword must fail to bind, not reach a ``**kwargs`` and fail later.
    with pytest.raises(TypeError, match="unexpected keyword argument 'workers'"):
        _drain(call(_workload(), workers=2))


@pytest.mark.parametrize("call", FRONT_ENDS.values(), ids=FRONT_ENDS)
def test_front_ends_reject_the_parallel_engine(call):
    with pytest.raises(SearchError) as raised:
        _drain(call(_workload(), engine="parallel"))
    for name in ("propagating", "sat", "naive"):
        assert repr(name) in str(raised.value)


#: The module-level names 8.0.0 removed, by module.
REMOVED_UNREFERENCED_NAMES = {
    repro.relational: ("instance_index",),
    indexing: ("instance_index",),
    repro.completeness: ("is_partially_closed", "is_partially_closed_world"),
    extensions: ("is_partially_closed",),
    consistency: ("is_partially_closed_world",),
    dependencies: ("schema_has_relation", "Dependency"),
    containment: ("RightHandSide",),
    terms: ("is_constant", "rename_variable"),
    repro.utils: ("bounded_product", "limited"),
    itertools_ext: ("bounded_product", "limited", "product_size"),
    naming: ("is_fresh_constant",),
    registry: ("WorldSearchLike",),
}


@pytest.mark.parametrize(
    ("module", "name"),
    [
        (module, name)
        for module, names in REMOVED_UNREFERENCED_NAMES.items()
        for name in names
    ],
    ids=[
        f"{module.__name__}.{name}"
        for module, names in REMOVED_UNREFERENCED_NAMES.items()
        for name in names
    ],
)
def test_the_unreferenced_module_names_are_gone(module, name):
    with pytest.raises(AttributeError):
        getattr(module, name)
    assert name not in getattr(module, "__all__", ())
    assert name not in repro.__all__


def test_the_algebra_module_is_gone():
    with pytest.raises(ImportError):
        import repro.relational.algebra  # noqa: F401


#: The methods and properties 8.0.0 removed, by class.
REMOVED_MEMBERS = {
    GroundInstance: ("fact_indexes", "_fact_indexes"),
    IndexedFactStore: ("built_indexes",),
    DPLLSolver: ("enumerate_models",),
    CNFFormula: ("satisfying_assignment",),
    Condition: ("conjoin", "with_conjunct", "is_satisfiable_over"),
    FunctionalDependency: ("violating_pairs",),
    CTable: ("variable_positions",),
    Relation: ("is_proper_subset", "difference", "intersection"),
    MasterData: ("from_instance",),
    RelationSchema: ("domain_of",),
    ConjunctiveQuery: ("is_boolean", "with_name", "existential_variables"),
    UnionOfConjunctiveQueries: ("is_boolean", "with_name"),
    FirstOrderQuery: ("is_boolean", "with_name"),
    ExistentialPositiveQuery: ("is_boolean", "with_name"),
    FixpointQuery: ("is_boolean", "with_name"),
    NativeQuery: ("is_boolean",),
    ReadWriteLock: ("writer_active",),
    Database: ("default_engine",),
}


@pytest.mark.parametrize(
    ("owner", "name"),
    [(owner, name) for owner, names in REMOVED_MEMBERS.items() for name in names],
    ids=[
        f"{owner.__name__}.{name}"
        for owner, names in REMOVED_MEMBERS.items()
        for name in names
    ],
)
def test_the_unreferenced_members_are_gone(owner, name):
    with pytest.raises(AttributeError):
        getattr(owner, name)


def test_iter_solver_models_needs_a_solver():
    workload = _workload()
    encoding = encode_world_search(workload.cinstance, workload.master, workload.constraints)
    with pytest.raises(TypeError, match="solver"):
        cnf_encoding.iter_solver_models(encoding)
