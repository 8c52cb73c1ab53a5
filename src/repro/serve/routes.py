"""Route table and typed HTTP errors for the query service.

Routing is a static segment match over a declarative table — no regex
dispatch, no registration side effects.  Each :class:`Route` names the
``ServeApp`` endpoint method that builds its payload, whether responses
may enter the TTL cache, and which query parameters it accepts; every
deviation (unknown path, wrong method, unexpected or malformed query)
raises a typed :class:`HttpError` that the app renders as canonical
error JSON — a client must never see a traceback.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple
from urllib.parse import parse_qsl, unquote

from ..errors import ServeError


class HttpError(ServeError):
    """An HTTP-mappable request failure.

    Attributes:
        status: The response status code.
        message: Client-facing explanation (rendered as error JSON).
    """

    status = 500

    def __init__(self, message: str) -> None:
        self.message = message
        super().__init__(message)


class BadRequest(HttpError):
    status = 400


class NotFound(HttpError):
    status = 404


class MethodNotAllowed(HttpError):
    status = 405


class ServiceUnavailable(HttpError):
    status = 503


@dataclasses.dataclass(frozen=True)
class Route:
    """One endpoint: its path shape, cacheability, and query surface.

    ``segments`` spells the path with ``{param}`` placeholders, e.g.
    ``("libraries", "{library}", "trend")``.  The handler is the
    ``ServeApp`` method ``_endpoint_<name>``.
    """

    name: str
    segments: Tuple[str, ...]
    cacheable: bool = True
    query: Tuple[str, ...] = ()

    @property
    def template(self) -> str:
        return "/" + "/".join(self.segments)


ROUTES: Tuple[Route, ...] = (
    Route("index", ()),
    Route("healthz", ("healthz",), cacheable=False),
    Route("metrics", ("metrics",), cacheable=False),
    Route("report", ("report",)),
    Route("crawl_metrics", ("crawl-metrics",)),
    Route("week", ("weeks", "{ordinal}", "overview")),
    Route("trend", ("libraries", "{library}", "trend"), query=("top",)),
    Route("cve", ("cves", "{identifier}",)),
    Route("scan", ("domains", "{domain}", "scan")),
)


def split_path(path: str) -> Tuple[str, ...]:
    """Percent-decoded, non-empty path segments (``/`` -> no segments)."""
    return tuple(unquote(part) for part in path.split("/") if part)


def match(path: str) -> Tuple[Route, Dict[str, str]]:
    """Resolve a request path against the route table.

    Raises:
        NotFound: No route has this shape.
    """
    segments = split_path(path)
    for route in ROUTES:
        if len(route.segments) != len(segments):
            continue
        params: Dict[str, str] = {}
        for expected, actual in zip(route.segments, segments):
            if expected.startswith("{") and expected.endswith("}"):
                params[expected[1:-1]] = actual
            elif expected != actual:
                break
        else:
            return route, params
    raise NotFound(f"no such endpoint: /{'/'.join(segments)}")


def parse_query(raw: str, route: Route) -> Dict[str, str]:
    """Validated query parameters for a matched route.

    Raises:
        BadRequest: The query string is syntactically malformed, names a
            parameter the route does not accept, or repeats one.
    """
    if not raw:
        return {}
    try:
        pairs = parse_qsl(raw, keep_blank_values=True, strict_parsing=True)
    except ValueError:
        raise BadRequest(f"malformed query string: {raw!r}")
    params: Dict[str, str] = {}
    for name, value in pairs:
        if name not in route.query:
            raise BadRequest(
                f"unexpected query parameter {name!r} "
                f"for {route.template}"
            )
        if name in params:
            raise BadRequest(f"repeated query parameter {name!r}")
        params[name] = value
    return params


def cache_key(path: str, params: Dict[str, str]) -> str:
    """Canonical cache key: normalized path plus sorted query."""
    normalized = "/" + "/".join(split_path(path))
    if not params:
        return normalized
    encoded = "&".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{normalized}?{encoded}"
