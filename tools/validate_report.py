#!/usr/bin/env python3
"""Validate a pmjoin report (run report or server report).

Dispatches on the top-level "schema" key:

  pmjoin.run_report.v1    -> tools/run_report_schema.json
  pmjoin.server_report.v1 -> tools/server_report_schema.json

Two layers of checking, stdlib only (no jsonschema dependency):

  1. Structure: the report is validated against the subset of JSON Schema
     used by the schema files (type, required, properties,
     additionalProperties, items, enum, const, minimum, $ref into
     #/definitions).
  2. Semantics: the exact-attribution ledger. For a run report, the sum
     of per-phase exclusive deltas (`io_self`) plus `unattributed_io`
     must equal `io_totals` exactly. For a server report, the sum of
     per-query `io` rows plus `unattributed_io` must equal `io_totals`.
     This is the subsystem's hard invariant: the breakdown is a partition
     of the modeled I/O, not an approximation of it.

Usage: tools/validate_report.py REPORT.json [...]
Exit code is non-zero if any report fails.
"""

import json
import os
import sys

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
SCHEMA_PATHS = {
    "pmjoin.run_report.v1": os.path.join(TOOLS_DIR,
                                         "run_report_schema.json"),
    "pmjoin.server_report.v1": os.path.join(TOOLS_DIR,
                                            "server_report_schema.json"),
}

IO_FIELDS = ("pages_read", "pages_written", "seeks", "sequential_reads",
             "buffer_hits")

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # bool is an int subclass in Python; a JSON true is not an integer.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


def resolve_ref(schema_root, ref):
    if not ref.startswith("#/"):
        raise ValueError(f"unsupported $ref: {ref}")
    node = schema_root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def check(value, schema, schema_root, path, errors):
    """Validates `value` against the JSON Schema subset; appends to errors."""
    if "$ref" in schema:
        check(value, resolve_ref(schema_root, schema["$ref"]), schema_root,
              path, errors)
        return
    if "const" in schema:
        if value != schema["const"]:
            errors.append(f"{path}: expected {schema['const']!r}, "
                          f"got {value!r}")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
        return
    if "type" in schema:
        if not TYPE_CHECKS[schema["type"]](value):
            errors.append(f"{path}: expected {schema['type']}, "
                          f"got {type(value).__name__}")
            return
    if "minimum" in schema and value < schema["minimum"]:
        errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in props:
                    errors.append(f"{path}: unexpected key {key!r}")
        for key, sub in props.items():
            if key in value:
                check(value[key], sub, schema_root, f"{path}.{key}", errors)
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            check(item, schema["items"], schema_root, f"{path}[{i}]", errors)


def check_ledger(report, rows, io_key, errors):
    """Σ rows[].<io_key> + unattributed_io == io_totals, field by field."""
    totals = report.get("io_totals", {})
    ledger = dict(report.get("unattributed_io", {}))
    for row in rows:
        for field, delta in row.get(io_key, {}).items():
            ledger[field] = ledger.get(field, 0) + delta
    for field in IO_FIELDS:
        if ledger.get(field) != totals.get(field):
            errors.append(
                f"ledger mismatch on {field}: "
                f"sum({io_key}) + unattributed = {ledger.get(field)}, "
                f"io_totals = {totals.get(field)}")


def validate_file(path, schemas):
    errors = []
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable: {exc}"]
    name = report.get("schema") if isinstance(report, dict) else None
    if name not in schemas:
        return [f"unknown schema {name!r}; expected one of "
                f"{sorted(schemas)}"]
    schema = schemas[name]
    check(report, schema, schema, "$", errors)
    if errors:
        return errors
    if name == "pmjoin.server_report.v1":
        # A server's I/O partitions over its queries' obs sessions.
        check_ledger(report, report.get("queries", []), "io", errors)
    else:
        # A run's I/O partitions over its span tree's exclusive deltas.
        check_ledger(report, report.get("phases", []), "io_self", errors)
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    schemas = {}
    for name, schema_path in SCHEMA_PATHS.items():
        with open(schema_path, encoding="utf-8") as fh:
            schemas[name] = json.load(fh)
    failed = False
    for path in argv[1:]:
        errors = validate_file(path, schemas)
        if errors:
            failed = True
            print(f"FAIL {path}")
            for error in errors:
                print(f"  {error}")
        else:
            print(f"OK   {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
