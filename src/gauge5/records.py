"""The grammar of every `--format machine` line: a tag, then `key=value`
fields separated by spaces. No value holds whitespace."""


def record(tag: str, **fields) -> str:
    """One line, fields in the order given: None is written `-`, booleans
    `true`/`false`, and tuples and lists as comma lists."""
    items = [tag]
    for key, value in fields.items():
        if value is None:
            value = "-"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, (tuple, list)):
            value = ",".join(map(str, value))
        text = str(value)
        if "".join(text.split()) != text:
            raise ValueError(f"record value holds whitespace: {key}={text!r}")
        items.append(f"{key}={text}")
    return " ".join(items)


def parse(line: str) -> tuple[str, dict[str, str]]:
    """The tag and the fields of one line; readers convert the values. A
    line names each field once."""
    tag, *items = line.split()  # an empty line raises ValueError here
    found: dict[str, str] = {}
    for item in items:
        key, eq, value = item.partition("=")
        if not eq:
            raise ValueError(f"record item without '=' in {line!r}")
        if key in found:
            raise ValueError(f"machine record repeats field {key!r}: {line!r}")
        found[key] = value
    return tag, found


def fields(found: dict[str, str], line: str, *keys: str) -> list[str]:
    """The values of `keys` among a parsed line's fields, in that order: the
    one strict read of a record. A missing key is refused first, in the
    order of keys, then a field no key names."""
    for key in keys:
        if key not in found:
            raise ValueError(f"machine record lacks field {key!r}: {line!r}")
    for key in found:
        if key not in keys:
            raise ValueError(f"machine record has unknown field {key!r}: {line!r}")
    return [found[key] for key in keys]


def integer(value: str, key: str, line: str, absent: bool = False) -> int | None:
    """A field's value as an integer, or None for `-` if the field may be
    absent; a malformed number is refused by field and line."""
    if absent and value == "-":
        return None
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"field {key!r} needs an integer, got {value!r}: {line!r}") from None
