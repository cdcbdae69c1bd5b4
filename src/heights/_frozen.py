"""Base of the library's immutable value classes.

A subclass names its fields in ``_fields`` and stores them in
``__init__`` through ``self.__dict__``.  Instances compare and hash by
those fields and print as ``Name(field=value, ...)``; assignment and
deletion raise AttributeError.  Pickling and copying restore
``__dict__`` directly, unless a subclass defines ``__reduce__``.
"""


class FrozenValue:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple(d[name] for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
