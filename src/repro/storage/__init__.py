"""Relational representation and update algorithms of Sect. 5."""

from repro.storage.internal_schema import (
    D_TABLE,
    E_TABLE,
    EXPLICIT_NO,
    EXPLICIT_YES,
    ROOT_WID,
    S_TABLE,
    SIGN_NEG,
    SIGN_POS,
    U_TABLE,
    create_internal_tables,
    star_table_name,
    v_table_name,
)
from repro.storage.compaction import (
    CompactionStats,
    VacuumStats,
    compact,
    hollow_states,
    vacuum_star,
)
from repro.storage.representation import materialize, rebuild
from repro.storage.store import BeliefStore, sign_to_str, str_to_sign
from repro.storage.updates import (
    delete_statement,
    delete_tuple,
    dss_relational,
    id_world,
    insert_statement,
    insert_tuple,
)

__all__ = [
    "BeliefStore",
    "CompactionStats",
    "D_TABLE",
    "E_TABLE",
    "EXPLICIT_NO",
    "EXPLICIT_YES",
    "ROOT_WID",
    "S_TABLE",
    "SIGN_NEG",
    "SIGN_POS",
    "U_TABLE",
    "VacuumStats",
    "compact",
    "create_internal_tables",
    "delete_statement",
    "delete_tuple",
    "dss_relational",
    "hollow_states",
    "id_world",
    "insert_statement",
    "insert_tuple",
    "materialize",
    "rebuild",
    "sign_to_str",
    "star_table_name",
    "str_to_sign",
    "v_table_name",
    "vacuum_star",
]
