"""The time-aware recursive resolver.

Walks the chain of authority exactly as it stood at a given instant:
registry delegation → glue (nameserver directory) → authoritative host →
answer.  Both the pDNS sensor network and the ACME domain-validation
check resolve through this object, which is what makes the attack's
causal chain real in the simulation: during a hijack window the CA's
DNS-01 check and a victim's mail client both land on attacker
infrastructure.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from enum import Enum

from repro.dns.nameserver import NameserverDirectory
from repro.dns.records import RRType
from repro.dns.registry import Registry
from repro.net.names import public_suffix, registered_domain


class ResolutionStatus(Enum):
    OK = "ok"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"
    SERVFAIL = "servfail"


@dataclass(frozen=True, slots=True)
class Resolution:
    """The outcome of one recursive resolution."""

    fqdn: str
    rtype: RRType
    at: datetime
    status: ResolutionStatus
    answers: tuple[str, ...] = ()
    delegation: tuple[str, ...] = ()
    answering_ns: str | None = None

    @property
    def ok(self) -> bool:
        return self.status is ResolutionStatus.OK


class RecursiveResolver:
    """Recursive resolution over registries + glue + authoritative hosts."""

    def __init__(
        self,
        registries: list[Registry],
        directory: NameserverDirectory,
    ) -> None:
        # Keep the caller's list object: the world grows it lazily as new
        # TLD registries come into existence.
        self._registries = registries
        self._directory = directory
        self._by_suffix: dict[str, Registry] = {}
        self._indexed = 0

    def registry_for(self, domain: str) -> Registry | None:
        """The first registry (in list order) administering the domain.

        One suffix computation and a dict lookup: the suffix index is
        rebuilt whenever the registry list has changed length.
        """
        if self._indexed != len(self._registries):
            self._by_suffix = {}
            for registry in self._registries:
                for suffix in registry.suffixes:
                    self._by_suffix.setdefault(suffix, registry)
            self._indexed = len(self._registries)
        if not self._by_suffix:
            return None
        return self._by_suffix.get(public_suffix(domain))

    #: CNAME chains longer than this SERVFAIL (loop protection).
    MAX_CNAME_DEPTH = 8

    def resolve(
        self, fqdn: str, rtype: RRType, at: datetime, _depth: int = 0
    ) -> Resolution:
        """Resolve ``fqdn``/``rtype`` as the Internet stood at ``at``.

        CNAMEs are chased (bounded depth) for non-CNAME query types, as a
        recursive resolver would; the returned resolution carries the
        final target's answers with the original query name.
        """
        fqdn = fqdn.lower().rstrip(".")
        base = registered_domain(fqdn)
        registry = self.registry_for(base)
        if registry is None:
            return Resolution(fqdn, rtype, at, ResolutionStatus.SERVFAIL)

        if rtype is RRType.NS and fqdn == base:
            delegation = registry.delegation_at(base, at)
            if not delegation:
                return Resolution(fqdn, rtype, at, ResolutionStatus.NXDOMAIN)
            return Resolution(
                fqdn, rtype, at, ResolutionStatus.OK,
                answers=delegation, delegation=delegation,
            )

        delegation = registry.delegation_at(base, at)
        if not delegation:
            return Resolution(fqdn, rtype, at, ResolutionStatus.NXDOMAIN)

        # Try each delegated nameserver in order until one has a live host;
        # a resolver retries siblings on timeout the same way.
        for ns_fqdn in delegation:
            host = self._directory.host_for(ns_fqdn, at)
            if host is None:
                continue
            answers = host.answer(fqdn, rtype, at)
            if answers:
                return Resolution(
                    fqdn, rtype, at, ResolutionStatus.OK,
                    answers=answers, delegation=delegation, answering_ns=ns_fqdn,
                )
            # No direct data: chase a CNAME if one exists for the name.
            if rtype is not RRType.CNAME:
                cnames = host.answer(fqdn, RRType.CNAME, at)
                if cnames:
                    if _depth >= self.MAX_CNAME_DEPTH:
                        return Resolution(
                            fqdn, rtype, at, ResolutionStatus.SERVFAIL,
                            delegation=delegation, answering_ns=ns_fqdn,
                        )
                    chased = self.resolve(cnames[0], rtype, at, _depth=_depth + 1)
                    return Resolution(
                        fqdn, rtype, at, chased.status,
                        answers=chased.answers, delegation=delegation,
                        answering_ns=ns_fqdn,
                    )
            return Resolution(
                fqdn, rtype, at, ResolutionStatus.NODATA,
                delegation=delegation, answering_ns=ns_fqdn,
            )
        return Resolution(fqdn, rtype, at, ResolutionStatus.SERVFAIL, delegation=delegation)

    def resolve_a(self, fqdn: str, at: datetime) -> tuple[str, ...]:
        """Convenience: A-record answers (empty tuple on any failure)."""
        return self.resolve(fqdn, RRType.A, at).answers

    def delegation_of(self, domain: str, at: datetime) -> tuple[str, ...]:
        registry = self.registry_for(domain)
        if registry is None:
            return ()
        return registry.delegation_at(registered_domain(domain), at)

    def suffix_known(self, domain: str) -> bool:
        """Does any registry administer this domain's public suffix?"""
        suffix = public_suffix(domain)
        return any(suffix in r.suffixes for r in self._registries)
