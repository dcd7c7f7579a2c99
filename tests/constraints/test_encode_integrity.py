"""Tests for dependency → CC encodings and integrity reasoning."""

import pytest

from repro.constraints.containment import satisfies_all
from repro.constraints.dependencies import DenialConstraint, cfd, fd, ind
from repro.constraints.encode import (
    cfd_as_ccs,
    denial_as_cc,
    encode_dependencies,
    fd_as_ccs,
    ind_to_master_as_cc,
)
from repro.constraints.integrity import (
    attribute_closure,
    chase_fd_ind,
    counterexample_instance,
    fd_implies,
    is_key,
    minimal_keys,
)
from repro.exceptions import ConstraintError
from repro.queries.atoms import atom, neq
from repro.queries.cq import boolean_cq
from repro.queries.terms import var
from repro.relational.instance import instance
from repro.relational.master import MasterData
from repro.relational.schema import database_schema, schema


@pytest.fixture
def emp_schema():
    return database_schema(schema("Emp", "id", "name", "dept", "city"))


@pytest.fixture
def master(emp_schema):
    master_schema = database_schema(schema("Deptm", "dept"))
    return MasterData(master_schema, {"Deptm": [("CS",), ("Math",)]})


class TestFDEncoding:
    def test_fd_as_ccs_shape(self, emp_schema):
        ccs = fd_as_ccs(fd("Emp", "id", ["name", "city"]), emp_schema)
        assert len(ccs) == 2
        assert all(c.query.arity == 0 for c in ccs)

    def test_cc_satisfaction_mirrors_fd(self, emp_schema, master):
        dependency = fd("Emp", "id", "name")
        ccs = fd_as_ccs(dependency, emp_schema)
        good = instance(emp_schema, Emp=[(1, "Ann", "CS", "EDI"), (2, "Bob", "CS", "EDI")])
        bad = instance(emp_schema, Emp=[(1, "Ann", "CS", "EDI"), (1, "Anne", "CS", "EDI")])
        assert dependency.is_satisfied(good) == satisfies_all(good, master, ccs)
        assert dependency.is_satisfied(bad) == satisfies_all(bad, master, ccs)
        assert not satisfies_all(bad, master, ccs)


class TestCFDEncoding:
    def test_cfd_with_constant_rhs(self, emp_schema, master):
        dependency = cfd("Emp", "dept", "city", pattern=("CS", "EDI"))
        ccs = cfd_as_ccs(dependency, emp_schema)
        good = instance(emp_schema, Emp=[(1, "Ann", "CS", "EDI"), (2, "Bob", "Math", "GLA")])
        bad = instance(emp_schema, Emp=[(1, "Ann", "CS", "GLA")])
        assert dependency.is_satisfied(good) == satisfies_all(good, master, ccs) is True
        assert dependency.is_satisfied(bad) == satisfies_all(bad, master, ccs) is False

    def test_cfd_with_wildcard_rhs(self, emp_schema, master):
        dependency = cfd("Emp", "dept", "city")
        ccs = cfd_as_ccs(dependency, emp_schema)
        bad = instance(emp_schema, Emp=[(1, "Ann", "CS", "EDI"), (2, "Bob", "CS", "GLA")])
        assert not satisfies_all(bad, master, ccs)
        assert dependency.is_satisfied(bad) is False


class TestOtherEncodings:
    def test_denial_as_cc(self, emp_schema, master):
        x = var("x")
        forbidden = DenialConstraint(
            boolean_cq(
                "dup",
                atoms=[
                    atom("Emp", x, var("n1"), var("d1"), var("c1")),
                    atom("Emp", x, var("n2"), var("d2"), var("c2")),
                ],
                comparisons=[neq(var("n1"), var("n2"))],
            )
        )
        constraint = denial_as_cc(forbidden)
        bad = instance(emp_schema, Emp=[(1, "Ann", "CS", "EDI"), (1, "Anne", "CS", "EDI")])
        assert forbidden.is_satisfied(bad) == constraint.is_satisfied(bad, master) is False

    def test_ind_into_master(self, emp_schema, master):
        dependency = ind("Emp", "dept", "Deptm", "dept")
        constraint = ind_to_master_as_cc(dependency, emp_schema, master.schema)
        assert constraint.is_inclusion_dependency()
        ok = instance(emp_schema, Emp=[(1, "Ann", "CS", "EDI")])
        bad = instance(emp_schema, Emp=[(1, "Ann", "Physics", "EDI")])
        assert constraint.is_satisfied(ok, master)
        assert not constraint.is_satisfied(bad, master)

    def test_ind_requires_master_schema(self, emp_schema):
        with pytest.raises(ConstraintError):
            encode_dependencies([ind("Emp", "dept", "Deptm", "dept")], emp_schema)

    def test_encode_mixed_collection(self, emp_schema, master):
        constraints = encode_dependencies(
            [fd("Emp", "id", "name"), ind("Emp", "dept", "Deptm", "dept")],
            emp_schema,
            master_schema=master.schema,
        )
        assert len(constraints) == 2

    def test_encode_unknown_dependency_rejected(self, emp_schema):
        with pytest.raises(ConstraintError):
            encode_dependencies(["not a dependency"], emp_schema)

    def test_ind_source_and_target_validated(self, emp_schema, master):
        with pytest.raises(ConstraintError):
            ind_to_master_as_cc(ind("Nope", "a", "Deptm", "dept"), emp_schema, master.schema)
        with pytest.raises(ConstraintError):
            ind_to_master_as_cc(ind("Emp", "dept", "Nope", "dept"), emp_schema, master.schema)


class TestFDImplication:
    def test_attribute_closure(self):
        fds = [fd("R", "A", "B"), fd("R", "B", "C")]
        assert attribute_closure(["A"], fds) == {"A", "B", "C"}
        assert attribute_closure(["B"], fds) == {"B", "C"}

    def test_fd_implies_transitivity(self):
        fds = [fd("R", "A", "B"), fd("R", "B", "C")]
        assert fd_implies(fds, fd("R", "A", "C"))
        assert not fd_implies(fds, fd("R", "C", "A"))

    def test_fd_implies_respects_relation(self):
        fds = [fd("R", "A", "B")]
        assert not fd_implies(fds, fd("S", "A", "B"))

    def test_is_key_and_minimal_keys(self):
        db = database_schema(schema("R", "A", "B", "C"))
        fds = [fd("R", "A", "B"), fd("R", "B", "C")]
        assert is_key(["A"], fds, db, "R")
        assert not is_key(["B"], fds, db, "R")
        assert minimal_keys(fds, db, "R") == [frozenset({"A"})]

    def test_counterexample_instance_violates_candidate(self):
        db = database_schema(schema("R", "A", "B", "C"))
        candidate = fd("R", "A", "B")
        witness = counterexample_instance(db, candidate)
        assert not candidate.is_satisfied(witness)
        # But it satisfies FDs with a larger LHS trivially.
        assert fd("R", ["A", "C"], ["B"]).is_satisfied(witness)


class TestChase:
    def test_chase_confirms_fd_only_implication(self):
        db = database_schema(schema("R", "A", "B", "C"))
        fds = [fd("R", "A", "B"), fd("R", "B", "C")]
        assert chase_fd_ind(db, fds, [], fd("R", "A", "C")) is True

    def test_chase_refutes_non_implication(self):
        db = database_schema(schema("R", "A", "B", "C"))
        fds = [fd("R", "A", "B")]
        assert chase_fd_ind(db, fds, [], fd("R", "A", "C")) is False

    def test_chase_with_ind_interaction(self):
        # R[A,B] ⊆ S[A,B] together with the FD A → B on S implies A → B on R
        # only through the IND + FD interaction when tuples are copied over.
        db = database_schema(schema("R", "A", "B"), schema("S", "A", "B"))
        fds = [fd("S", "A", "B")]
        inds = [ind("R", ["A", "B"], "S", ["A", "B"])]
        assert chase_fd_ind(db, fds, inds, fd("R", "A", "B")) is True

    def test_chase_budget_exhaustion_returns_none(self):
        # A cyclic IND that keeps generating fresh tuples never converges within
        # a tiny budget; the bounded chase reports "unknown".
        db = database_schema(schema("R", "A", "B"))
        inds = [ind("R", ["A"], "R", ["B"])]
        result = chase_fd_ind(db, [], inds, fd("R", "A", "B"), max_steps=2)
        assert result is None
