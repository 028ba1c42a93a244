import pytest

from wspkit.core import Plan, WorkflowSchema, disequality, equality


@pytest.fixture
def wstar() -> WorkflowSchema:
    """The three-task running instance with a unique valid plan."""
    return WorkflowSchema(
        tasks=("s1", "s2", "s3"),
        users=("u1", "u2", "u3", "u4", "u5", "u6"),
        auth={
            "s1": {"u1", "u2", "u3"},
            "s2": {"u1", "u4", "u5"},
            "s3": {"u1", "u6"},
        },
        constraints=(
            equality("s1", "s2"),
            disequality("s1", "s3"),
            disequality("s2", "s3"),
        ),
    )


@pytest.fixture
def wstar_plan() -> Plan:
    return {"s1": "u1", "s2": "u1", "s3": "u6"}
