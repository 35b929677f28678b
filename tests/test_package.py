"""The package namespace: every exported name exists."""

import realcert


def test_all_names_resolve():
    for name in realcert.__all__:
        getattr(realcert, name)
