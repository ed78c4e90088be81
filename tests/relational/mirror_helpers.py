"""Read a :class:`SqliteMirror` back for comparison in tests."""

from __future__ import annotations

from repro.relational.sqlite_backend import SqliteMirror, quote_identifier


def _table_names(mirror: SqliteMirror) -> list[str]:
    return [
        name for (name,) in mirror.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite_%' ORDER BY name"
        )
    ]


def mirror_tables(mirror: SqliteMirror) -> dict[str, list[tuple]]:
    """Every mirrored table as its sorted ``(rowid, *row)`` list."""
    return {
        name: mirror.execute(
            f"SELECT _rowid_, * FROM {quote_identifier(name)} ORDER BY _rowid_"
        )
        for name in _table_names(mirror)
    }


def mirror_indexes(mirror: SqliteMirror) -> dict[str, list[tuple[str, ...]]]:
    """The sorted indexed-column tuples of every mirrored table."""
    found = {}
    for name in _table_names(mirror):
        indexes = mirror.execute(f"PRAGMA index_list({quote_identifier(name)})")
        found[name] = sorted(
            tuple(
                row[2] for row in mirror.execute(
                    f"PRAGMA index_info({quote_identifier(index[1])})"
                )
            )
            for index in indexes
        )
    return found


def declared_indexes(engine) -> dict[str, list[tuple[str, ...]]]:
    """What :func:`mirror_indexes` must return for a mirror of ``engine``."""
    return {
        name: sorted(
            table.schema.indexes
            + ((table.schema.key,) if table.schema.key else ())
        )
        for name, table in engine.tables().items()
    }


def assert_mirror_is_exact(db) -> None:
    """The current version's (carried-forward) mirror equals a from-empty
    build of the same version — rows with their rowids — and holds exactly
    the declared indexes."""
    with db.read_view() as version, SqliteMirror() as fresh:
        fresh.sync(version.store.engine)
        mirror = version.synced_mirror()
        assert mirror_tables(mirror) == mirror_tables(fresh)
        assert mirror_indexes(mirror) == declared_indexes(version.store.engine)


class MirrorLedger:
    """Every :class:`SqliteMirror` opened while installed, and which are
    still open: the test-side count of live sqlite connections."""

    def __init__(self, monkeypatch) -> None:
        self.opened: list[SqliteMirror] = []
        self.open: set[int] = set()
        init, close = SqliteMirror.__init__, SqliteMirror.close
        ledger = self

        def tracked_init(mirror, *args, **kwargs):
            init(mirror, *args, **kwargs)
            ledger.opened.append(mirror)
            ledger.open.add(id(mirror))

        def tracked_close(mirror):
            close(mirror)
            ledger.open.discard(id(mirror))

        monkeypatch.setattr(SqliteMirror, "__init__", tracked_init)
        monkeypatch.setattr(SqliteMirror, "close", tracked_close)
