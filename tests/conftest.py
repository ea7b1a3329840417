import pytest

from cubefree import extend, words


@pytest.fixture
def append_checks(monkeypatch):
    """count(call) -> (n, result): the words.append_check calls call() makes
    on cold caches, and its result.  Work-count tests use this one counter,
    so switching the counted primitive happens here."""

    def count(call):
        calls = []
        append_check = words.append_check
        with monkeypatch.context() as m:
            m.setattr(words, "append_check", lambda w, x, **kw: calls.append(x) or append_check(w, x, **kw))
            extend.clear_caches()
            result = call()
        return len(calls), result

    return count
