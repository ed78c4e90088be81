#!/usr/bin/env python3
"""A tour of BeliefSQL (Fig. 1): every statement form, every backend.

Covers select (content, conflict, user queries), insert with nested BELIEF
prefixes and `not`, delete with conditions, update of ground data and of
belief worlds — and shows the same query running on the in-memory Datalog
engine and on the SQLite mirror.

Run:  python examples/beliefsql_tour.py
"""

from repro import BeliefDBMS, sightings_schema
from repro.query.parser import parse_bcq
from repro.query.sql_gen import evaluate_sql, generate_sql
from repro.relational.sqlite_backend import SqliteMirror


def run(db: BeliefDBMS, sql: str):
    result = db.execute_sql(sql)
    shown = sql if len(sql) <= 72 else sql[:69] + "..."
    outcome = result.rows if result.kind == "select" else result.status
    print(f"  {shown}\n    -> {outcome}")
    return result


def main() -> None:
    db = BeliefDBMS(sightings_schema())
    for name in ("Alice", "Bob", "Carol"):
        db.add_user(name)

    print("== INSERT: ground rows and (nested) belief statements ==")
    run(db, "insert into Sightings values "
            "('s1','Carol','bald eagle','6-14-08','Lake Forest')")
    run(db, "insert into Sightings values "
            "('s3','Carol','osprey','6-15-08','Cedar River')")
    run(db, "insert into BELIEF 'Bob' not Sightings values "
            "('s1','Carol','bald eagle','6-14-08','Lake Forest')")
    run(db, "insert into BELIEF 'Alice' Sightings values "
            "('s2','Alice','crow','6-14-08','Lake Placid')")
    run(db, "insert into BELIEF 'Bob' Sightings values "
            "('s2','Alice','raven','6-14-08','Lake Placid')")
    run(db, "insert into BELIEF 'Bob' BELIEF 'Alice' Comments values "
            "('c2','black feathers','s2')")

    print("\n== SELECT: content of a belief world ==")
    run(db, "select S.sid, S.species from BELIEF 'Bob' Sightings as S")

    print("\n== SELECT: negated from-item ('what does Bob reject?') ==")
    run(db, "select S.sid, S.species from BELIEF 'Bob' not Sightings as S, "
            "Sightings as G where G.sid = S.sid and G.uid = S.uid and "
            "G.species = S.species and G.date = S.date and "
            "G.location = S.location")

    print("\n== SELECT: correlated BELIEF path (user variable) ==")
    run(db, "select U.name, S.species from Users as U, "
            "BELIEF U.uid Sightings as S where S.sid = 's2'")

    print("\n== UPDATE: correcting ground data keeps annotations aligned ==")
    run(db, "update Sightings set species = 'fish eagle' where sid = 's1'")
    run(db, "select S.sid, S.species from Sightings as S")

    print("\n== UPDATE on a belief world: Alice revises her own view ==")
    run(db, "update BELIEF 'Alice' Sightings set species = 'osprey' "
            "where sid = 's2'")
    run(db, "select S.species from BELIEF 'Alice' Sightings as S "
            "where S.sid = 's2'")

    print("\n== DELETE: Bob withdraws his disagreement ==")
    run(db, "delete from BELIEF 'Bob' not Sightings where sid = 's1'")
    run(db, "select S.sid, S.species from BELIEF 'Bob' Sightings as S")

    print("\n== Same query, two backends ==")
    question = ("select U.name, S.species from Users as U, "
                "BELIEF U.uid Sightings as S where S.sid = 's2'")
    engine_rows = db.execute_sql(question).rows
    db.backend = "sqlite"
    sqlite_rows = db.execute_sql(question).rows
    db.backend = "engine"
    print(f"  engine: {engine_rows}")
    print(f"  sqlite: {sqlite_rows}")
    assert engine_rows == sqlite_rows

    print("\n== Parameter binding: ? placeholders, one compile, many binds ==")
    prepared = db.prepare(
        "select S.species from BELIEF ? Sightings as S where S.sid = ?"
    )
    for who, sid in (("Alice", "s2"), ("Bob", "s2"), ("Carol", "s1")):
        result = db.execute_prepared(prepared, (who, sid))
        print(f"  BELIEF {who}, sid={sid} -> {result.rows} "
              f"[{result.status}, cols={result.columns}]")
    # Values never touch the SQL text, so awkward strings need no escaping:
    db.execute_sql("insert into BELIEF 'Carol' Comments values (?, ?, ?)",
                   ("c9", "it was O'Brien's \"fish eagle\"", "s1"))
    spiky = db.execute_sql(
        "select C.comment from BELIEF 'Carol' Comments as C where C.cid = ?",
        ("c9",),
    )
    print(f"  quoted-value round-trip: {spiky.scalar()!r}")

    print("\n== Peek under the hood: the SQL the sqlite backend runs ==")
    # The engine's program for the query, rendered once into one statement;
    # every constant is a ?n parameter.
    query = parse_bcq(
        "q(x) :- [x] Sightings-(k, z, sp, u, v), "
        "['Alice'] Sightings+(k, z, sp, u, v)", db.schema
    )
    generated = generate_sql(db.store, query)
    print(f"  BCQ: {query}")
    print(f"  SQL: {generated.sql[:200]}...")
    print(f"  params: {generated.params}")
    with SqliteMirror() as mirror:
        mirror.sync(db.store.engine)
        print(f"  on the mirror -> {sorted(evaluate_sql(db.store, query, mirror))}")


if __name__ == "__main__":
    main()
