"""Straight-line code generated from a componentwise kernel.

`generate` calls a kernel once on symbolic arguments and compiles what
it recorded into one function of the kernel's own parameters, with no
calls left in it but the opaque ones.  The symbols are `_Sym` scalars,
which record ``+ - * /`` and unary ``-`` and refuse to be compared or
tested for truth (TypeError), so a kernel that branches on a value
fails at generation, and `_Box` sequences, which hand out their entries
by unpacking.  The generated function applies the same operations to
the same operands in the same order: an operation whose value is used
once is written inline where it is used, one used more than once is
bound to a local, and one that no output needs is dropped.  There is no
algebraic rewriting and a kernel's arguments stay arguments, so on
Python floats and on numpy columns alike it gives the kernel's bits.

An argument is described by a spec:

* ``None``, one scalar;
* an int n, a sequence of n scalars;
* a tuple of specs, a sequence of those entries;
* a string of names, an object whose attributes of those names are
  scalars (a `control.GainSet` read as "kp kd ki");
* `Call(spec)`, a callable whose calls stay calls, made in the traced
  order, each returning a value of ``spec``.
"""

import functools
import itertools
import types

# the precedence of each operation, to parenthesize only where Python's
# grammar needs it; names and literals bind tightest
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}
_ATOM = 4


class Call:
    """The spec of an opaque callable whose calls return ``spec``."""

    def __init__(self, spec):
        self.spec = spec


def _record(trace, event):
    trace.append(event)
    return event


class _Sym:
    """A traced scalar: an argument, an attribute of one or an entry of
    a `_Box` (op "arg", "attr" or "entry"), or the value of an operation
    of `_PREC` on ``args``.  ``trace`` lists the events of the traced
    call in order: each operation, the first read of each box's entries
    and each opaque call."""

    __slots__ = ("trace", "op", "args", "uses", "name")

    def __init__(self, trace, op, args, name=None):
        self.trace, self.op, self.args = trace, op, args
        self.uses, self.name = 0, name

    def _apply(self, op, a, b):
        if isinstance(a, _OPERAND) and isinstance(b, _OPERAND):
            return _record(self.trace, _Sym(self.trace, op, (a, b)))
        return NotImplemented

    __add__ = lambda s, o: s._apply("+", s, o)
    __radd__ = lambda s, o: s._apply("+", o, s)
    __sub__ = lambda s, o: s._apply("-", s, o)
    __rsub__ = lambda s, o: s._apply("-", o, s)
    __mul__ = lambda s, o: s._apply("*", s, o)
    __rmul__ = lambda s, o: s._apply("*", o, s)
    __truediv__ = lambda s, o: s._apply("/", s, o)
    __rtruediv__ = lambda s, o: s._apply("/", o, s)

    def __neg__(self):
        return _record(self.trace, _Sym(self.trace, "neg", (self,)))

    def _branch(self, *_):
        raise TypeError("a generated kernel cannot branch on a value")

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _branch
    __hash__ = object.__hash__


_OPERAND = (_Sym, float, int)


class _Box:
    """A traced sequence of ``spec``: an argument, an entry of another
    box or an opaque call's value (``source`` "arg", "entry" or "call",
    then what it is from).  Its entries come from unpacking it whole, one
    statement at their first read."""

    __slots__ = ("trace", "specs", "source", "entries", "uses", "name")

    def __init__(self, trace, spec, source, name=None):
        self.trace, self.source, self.name = trace, source, name
        self.specs = (None,) * spec if isinstance(spec, int) else spec
        self.entries, self.uses = None, 0

    def _unpacked(self):
        if self.entries is None:
            self.entries = [_symbolic(self.trace, spec, ("entry", self))
                            for spec in self.specs]
            _record(self.trace, ("unpack", self))
        return self.entries

    def __iter__(self):
        return iter(self._unpacked())

    def __getitem__(self, key):
        return self._unpacked()[key]


def _call(trace, spec, name, *args):
    """One traced call of an opaque callable: its value, a box."""
    return _record(trace, _Box(trace, spec, ("call", name, args)))


def _symbolic(trace, spec, source):
    """The traced value of ``spec`` from ``source``, ("arg", name) or
    ("entry", box)."""
    name = source[1] if source[0] == "arg" else None
    if spec is None:
        return _Sym(trace, source[0], source[1:], name)
    if isinstance(spec, str):
        return types.SimpleNamespace(**{
            attr: _record(trace, _Sym(trace, "attr", (name, attr)))
            for attr in spec.split()})
    if isinstance(spec, Call):
        return functools.partial(_call, trace, spec.spec, name)
    return _Box(trace, spec, source, name)


def _use(value):
    """Count a use of ``value``, and at its first a use of each value it
    is computed from."""
    if isinstance(value, (tuple, list)):
        for item in value:
            _use(item)
    elif isinstance(value, (_Sym, _Box)):
        value.uses += 1
        if value.uses == 1:
            if isinstance(value, _Box):
                if value.source[0] == "entry":
                    _use(value.source[1])
            elif value.op == "entry" or value.op in _PREC:
                _use(value.args)


def _text(value):
    """(text, precedence) of a traced value, a constant or a tuple or list
    of them; an operation not bound to a local is written inline."""
    if isinstance(value, (tuple, list)):
        items = ", ".join(_text(x)[0] for x in value)
        if isinstance(value, list):
            return f"[{items}]", _ATOM
        return f"({items}{',' if len(value) == 1 else ''})", _ATOM
    if isinstance(value, (_Sym, _Box)) and value.name is not None:
        return value.name, _ATOM
    if isinstance(value, _Sym):
        if value.op == "attr":
            return "{}.{}".format(*value.args), _ATOM
        if value.op == "neg":
            text, prec = _text(value.args[0])
            return "-" + (text if prec == _ATOM else f"({text})"), \
                _PREC["neg"]
        p = _PREC[value.op]
        (lt, lp), (rt, rp) = map(_text, value.args)
        return (f"{lt if lp >= p else f'({lt})'} {value.op} "
                f"{rt if rp > p else f'({rt})'}"), p
    if type(value) in (float, int) and abs(value) < float("inf"):
        text = repr(value)
        return text, _PREC["neg"] if text.startswith("-") else _ATOM
    raise TypeError(f"cannot write {value!r} into a generated kernel")


def _statements(trace):
    """The statements of the trace's events that its outputs and calls
    need, in the traced order, each binding a fresh local."""
    names = (f"_{k}" for k in itertools.count())
    for event in trace:
        if isinstance(event, tuple):   # the first read of a box's entries
            entries = event[1].entries
            if any(entry.uses for entry in entries):
                for entry in entries:
                    entry.name = next(names) if entry.uses else "_"
                targets = ", ".join(entry.name for entry in entries)
                yield f"{targets}{',' if len(entries) == 1 else ''} " \
                    f"= {event[1].name}"
        elif isinstance(event, _Box):   # an opaque call
            _, of, args = event.source   # ``args`` a tuple, written as one
            event.name = next(names)
            yield f"{event.name} = {of}{_text(args)[0]}"
        elif event.uses > 1 and event.op not in ("arg", "entry"):
            text = _text(event)[0]
            event.name = next(names)
            yield f"{event.name} = {text}"


def generate(kernel, *specs, calls=(), **given):
    """The straight-line function of ``kernel`` for arguments of
    ``specs``, one per leading parameter.  ``given`` fixes the values of
    further parameters at generation; the generated function does not take
    them.  ``calls`` maps the names of module functions that stay calls to
    the specs of their values.  The result keeps the kernel's name,
    docstring and globals, the kernel as ``__wrapped__`` and its own
    source text as ``source``.

    Raises:
        TypeError: if the kernel branches on, compares or converts a
            traced value, or its value holds a constant that is not a
            finite number.
    """
    params = kernel.__code__.co_varnames[:len(specs)]
    trace = []
    args = [_symbolic(trace, spec, ("arg", name))
            for spec, name in zip(specs, params)]
    stubs = {name: _symbolic(trace, Call(spec), ("arg", name))
             for name, spec in dict(calls).items()}
    traced = types.FunctionType(kernel.__code__,
                                {**kernel.__globals__, **stubs},
                                kernel.__name__, kernel.__defaults__,
                                kernel.__closure__)
    out = traced(*args, **given)
    for event in trace:   # every call is made
        if isinstance(event, _Box):
            _use(event.source[2])
    _use(out)
    body = [*_statements(trace), f"return {_text(out)[0]}"]
    source = f"def {kernel.__name__}({', '.join(params)}):\n" \
        + "".join(f"    {line}\n" for line in body)
    namespace = {}
    exec(compile(source, f"<generated {kernel.__qualname__}>", "exec"),
         namespace)
    fn = types.FunctionType(namespace[kernel.__name__].__code__,
                            kernel.__globals__, kernel.__name__)
    fn.source = source
    return functools.update_wrapper(fn, kernel)


def kernel(*specs, calls=()):
    """Decorator: the function below replaced by its `generate`d form
    for arguments of ``specs``, with the module functions of ``calls``
    left as calls."""
    return lambda fn: generate(fn, *specs, calls=calls)
