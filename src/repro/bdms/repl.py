"""An interactive BeliefSQL shell.

Accepts BeliefSQL statements plus meta-commands:

    \\users                 registered users
    \\worlds                belief worlds and their sizes
    \\world <u1[.u2...]>    entailed content of one belief world
    \\kripke                the canonical Kripke structure
    \\stats                 |R*|, world count, annotation count
    \\adduser <name>        register a user
    \\explain <select ...>  show the Algorithm 1 translation
    \\help, \\quit

The loop is decoupled from I/O (``feed`` processes one line and returns the
output text), so it is fully unit-testable and scriptable; ``main`` wires it
to stdin.
"""

from __future__ import annotations

from repro.bdms.result import Result
from repro.beliefsql.compiler import compile_select_prepared
from repro.beliefsql.parser import parse_beliefsql
from repro.bdms.bdms import BeliefDBMS
from repro.core.paths import format_path
from repro.core.schema import ExternalSchema, sightings_schema
from repro.errors import BeliefDBError

PROMPT = "beliefdb> "


def format_result(result: Result) -> str:
    """Render a typed Result for the shell: column headers, rows, status."""
    if result.kind == "select":
        if not result.rows:
            return "(no rows)"
        lines = []
        if result.columns:
            header = " | ".join(result.columns)
            lines.append("  " + header)
            lines.append("  " + "-" * len(header))
        lines += ["  " + " | ".join(map(str, row)) for row in result.rows]
        n = result.rowcount
        lines.append(f"({n} row{'s'[:n != 1]})")
        return "\n".join(lines)
    if result.kind == "insert":
        return "ok" if result.ok else "rejected"
    return f"{result.rowcount} statement(s) affected"


class BeliefShell:
    """State and line-processing for the REPL."""

    def __init__(self, db: BeliefDBMS | None = None) -> None:
        self.db = db if db is not None else BeliefDBMS(sightings_schema())
        self.done = False

    # -- one line in, text out --------------------------------------------

    def feed(self, line: str) -> str:
        line = line.strip()
        if not line:
            return ""
        try:
            if line.startswith("\\"):
                return self._meta(line)
            return self._sql(line)
        except BeliefDBError as exc:
            return f"error: {exc}"

    def _sql(self, line: str) -> str:
        return format_result(self.db.execute_sql(line))

    def _meta(self, line: str) -> str:
        command, _, argument = line[1:].partition(" ")
        command = command.lower()
        argument = argument.strip()
        if command in ("quit", "q", "exit"):
            self.done = True
            return "bye"
        if command == "help":
            return __doc__.split("Accepts", 1)[1].split("The loop", 1)[0]
        if command == "users":
            users = self.db.users()
            return "\n".join(f"  {uid}: {name}" for uid, name in users.items()) \
                or "(no users)"
        if command == "adduser":
            if not argument:
                return "usage: \\adduser <name>"
            uid = self.db.add_user(argument)
            return f"registered {argument!r} as uid {uid}"
        if command == "worlds":
            lines = []
            for path in sorted(self.db.store.states(), key=lambda p: (len(p), repr(p))):
                positives, negatives = self.db.store.sign_counts(path)
                lines.append(
                    f"  {format_path(path)}: {positives}+ / {negatives}-"
                )
            return "\n".join(lines)
        if command == "world":
            if not argument:
                return "usage: \\world <user[.user...]>"
            path = tuple(p for p in argument.split(".") if p)
            return f"  {self.db.world(list(path))}"
        if command == "kripke":
            return self.db.kripke().describe()
        if command == "stats":
            return self.db.describe()
        if command == "explain":
            if not argument.lower().startswith("select"):
                return "usage: \\explain select ..."
            from repro.query.explain import explain

            statement = parse_beliefsql(argument)
            query = compile_select_prepared(
                statement, self.db.schema  # type: ignore[arg-type]
            ).bind(())
            if query is None:
                return "provably empty (contradictory constants)"
            return explain(self.db.store, query, analyze=True).render()
        return f"unknown command \\{command} (try \\help)"

    # -- scripting ------------------------------------------------------------

    def run_script(self, lines: list[str]) -> list[str]:
        """Feed many lines; returns the outputs (stops at \\quit)."""
        outputs = []
        for line in lines:
            outputs.append(self.feed(line))
            if self.done:
                break
        return outputs


def _parse_path(argument: str) -> list:
    """``u1.u2`` -> path list; numeric segments become uids, others names."""
    return [
        int(p) if p.isdigit() else p
        for p in argument.split(".")
        if p
    ]


REMOTE_HELP = """\
 BeliefSQL statements plus meta-commands:

    \\login <name>          authenticate (creates the user if missing)
    \\logout                drop the session user
    \\whoami                session state
    \\path [u1[.u2...]]     show or set the default belief path (. = root)
    \\users                 registered users
    \\adduser <name>        register a user
    \\worlds                belief worlds and their sizes
    \\world <u1[.u2...]>    entailed content of one belief world
    \\kripke                the canonical Kripke structure
    \\stats                 database and server counters
    \\help, \\quit"""


class RemoteShell:
    """The same shell experience against a network belief server.

    Meta-commands mirror :class:`BeliefShell` where the server exposes the
    equivalent introspection op (no remote ``\\explain``), plus the session
    commands listed in :data:`REMOTE_HELP`.
    """

    def __init__(self, client) -> None:
        self.client = client
        self.done = False

    def feed(self, line: str) -> str:
        from repro.server.client import ConnectionLost

        line = line.strip()
        if not line:
            return ""
        try:
            if line.startswith("\\"):
                return self._meta(line)
            return self._sql(line)
        except ConnectionLost as exc:
            self.done = True
            return f"connection lost: {exc}"
        except BeliefDBError as exc:
            return f"error: {exc}"

    def _sql(self, line: str) -> str:
        payload = self.client.execute_prepared(line)
        return format_result(
            Result.from_wire(payload, self.client.drain(payload))
        )

    def _meta(self, line: str) -> str:
        command, _, argument = line[1:].partition(" ")
        command = command.lower()
        argument = argument.strip()
        if command in ("quit", "q", "exit"):
            self.done = True
            return "bye"
        if command == "help":
            return REMOTE_HELP
        if command == "login":
            if not argument:
                return "usage: \\login <name>"
            info = self.client.login(argument, create=True)
            return (
                f"logged in as {info['user_name']!r} (uid {info['user']}), "
                f"default path {info['default_path']}"
            )
        if command == "logout":
            self.client.logout()
            return "logged out"
        if command == "whoami":
            info = self.client.whoami()
            if info["user"] is None:
                return f"anonymous, default path {info['default_path']}"
            return (
                f"{info['user_name']!r} (uid {info['user']}), "
                f"default path {info['default_path']}"
            )
        if command == "path":
            if not argument:
                info = self.client.whoami()
                return f"default path {info['default_path']}"
            # "." resets to the root world (plain content).
            path = [] if argument == "." else _parse_path(argument)
            info = self.client.set_path(path)
            return f"default path {info['default_path']}"
        if command == "users":
            users = self.client.users()
            return "\n".join(
                f"  {uid}: {name}" for uid, name in users.items()
            ) or "(no users)"
        if command == "adduser":
            if not argument:
                return "usage: \\adduser <name>"
            uid = self.client.add_user(argument)
            return f"registered {argument!r} as uid {uid}"
        if command == "worlds":
            worlds = self.client.worlds()
            return "\n".join(
                f"  {w['label']}: {w['positives']}+ / {w['negatives']}-"
                for w in worlds
            )
        if command == "world":
            path = _parse_path(argument)
            world = self.client.world(path if path else None)
            pos = ", ".join(world["positives"]) or "∅"
            neg = ", ".join(world["negatives"]) or "∅"
            return f"  {world['label']}: +{{{pos}}} -{{{neg}}}"
        if command == "kripke":
            return self.client.kripke()
        if command == "stats":
            stats = self.client.stats()
            server = stats.pop("server", {})
            lines = [f"  {k}: {v}" for k, v in stats.items()]
            lines += [f"  server.{k}: {v}" for k, v in server.items()]
            return "\n".join(lines)
        return f"unknown command \\{command} (try \\help)"

    def run_script(self, lines: list[str]) -> list[str]:
        """Feed many lines; returns the outputs (stops at \\quit)."""
        outputs = []
        for line in lines:
            outputs.append(self.feed(line))
            if self.done:
                break
        return outputs


def remote_main(host: str, port: int, user: str | None = None) -> None:  # pragma: no cover
    from repro.server.client import BeliefClient

    with BeliefClient(host, port) as client:
        shell = RemoteShell(client)
        print(f"Belief DBMS shell — connected to {host}:{port} "
              "(BeliefSQL plus \\help).")
        if user:
            print(shell.feed(f"\\login {user}"))
        while not shell.done:
            try:
                line = input(PROMPT)
            except (EOFError, KeyboardInterrupt):
                print()
                break
            output = shell.feed(line)
            if output:
                print(output)


def main(schema: ExternalSchema | None = None) -> None:  # pragma: no cover
    shell = BeliefShell(
        BeliefDBMS(schema if schema is not None else sightings_schema())
    )
    print("Belief DBMS shell — BeliefSQL plus \\help for meta-commands.")
    while not shell.done:
        try:
            line = input(PROMPT)
        except (EOFError, KeyboardInterrupt):
            print()
            break
        output = shell.feed(line)
        if output:
            print(output)


if __name__ == "__main__":  # pragma: no cover
    main()
