"""Plain data classes that need no import: ``dataclasses`` costs every
process more to import and apply than the rest of the package."""


class Record:
    """The fields are the class annotations, in constructor order, and
    their defaults the class attributes; a class as default (``list``) is
    called for each instance.  Instances compare field-wise within their
    own class, show the fields not named ``_*`` in ``repr``, copy with
    changes through ``replace`` and validate themselves in ``_check``."""

    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, not {len(args)}")
        values = dict(zip(cls._fields, args))
        for name in cls._fields[len(args) :]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls.__dict__:
                default = cls.__dict__[name]
                values[name] = default() if isinstance(default, type) else default
            else:
                raise TypeError(f"{cls.__name__} needs the field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected fields {sorted(kwargs)}")
        self.__dict__.update(values)
        self._check()

    def _check(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        shown = (f"{k}={self.__dict__[k]!r}" for k in self._fields if k[0] != "_")
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class FrozenRecord(Record):
    """A record that refuses assignment and hashes as its field tuple."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __hash__(self):
        return hash(self._values())
