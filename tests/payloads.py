"""Comparison of parsed JSON payloads whose floats may differ in the last bits."""


def assert_payload_close(actual, expected, tol: float = 1e-12, where: str = "payload") -> None:
    """Equal payloads: floats within tol, every other value (and every type) exactly."""
    assert type(actual) is type(expected), (where, actual, expected)
    if isinstance(expected, float):
        assert abs(actual - expected) <= tol, (where, actual, expected)
    elif isinstance(expected, dict):
        assert actual.keys() == expected.keys(), (where, sorted(actual), sorted(expected))
        for key, value in expected.items():
            assert_payload_close(actual[key], value, tol, f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), (where, actual, expected)
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_payload_close(a, e, tol, f"{where}[{i}]")
    else:
        assert actual == expected, (where, actual, expected)
