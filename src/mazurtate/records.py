"""Plain records: classes whose fields are their annotations.

``class Point(Record): x: int; y: int = 0`` gets ``__init__(x, y=0)``, which
takes the fields positionally or by name, ``__eq__`` between records of the
same class, and the ``__repr__`` ``Point(x=1, y=0)``.  ``__post_init__``,
where a class defines one, runs at the end of ``__init__``.
``class Point(Record, frozen=True)`` also gets ``__hash__`` and refuses
assignment and deletion.  A mutable record is unhashable.  No code is generated: the methods below
serve every record and read its class's ``_fields`` and ``_defaults``.
"""


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse_write
            cls.__hash__ = _hash

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments, got {len(args)}")
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        for name in cls._fields:
            if name in values:
                value = values[name]
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _refuse_write(self, name, *value):
    raise AttributeError(f"field {name!r} of a frozen {type(self).__name__} cannot change")


def _hash(self):
    return hash(self._values())
