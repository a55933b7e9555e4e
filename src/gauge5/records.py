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
    """The tag and the fields of one line; readers convert the values."""
    tag, *items = line.split()  # an empty line raises ValueError here
    try:
        return tag, dict(item.split("=", 1) for item in items)
    except ValueError:
        raise ValueError(f"record item without '=' in {line!r}") from None


def integer(value: str, key: str, line: str) -> int:
    """A field's value as an integer; a malformed number is refused by field and line."""
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"field {key!r} needs an integer, got {value!r}: {line!r}") from None
