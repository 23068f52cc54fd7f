"""Ontop-spatial: virtual geospatial RDF views over relational data.

The paper lists "performing data analytics (Strabon [15] and Ontop-spatial
[1])" among the C3 technologies. Where Strabon *materialises* RDF,
Ontop-spatial answers GeoSPARQL against data that stays in a relational
database, by rewriting queries over R2RML mappings (OBDA — ontology-based
data access).

This package reproduces that architecture:

* :mod:`repro.obda.relational` — a small in-memory relational engine
  (tables, typed columns, predicate-pushdown scans)
* :class:`~repro.obda.virtual.VirtualGeoStore` — answers SPARQL
  (BGP + FILTER, including ``geof:`` spatial filters, under any solution
  modifier) by unfolding the query into table scans over
  :class:`~repro.geotriples.mapping.TriplesMap` mappings, whose rows the
  shared SPARQL pipeline joins and finishes — **no triple is ever
  materialised**.
"""

from repro.obda.relational import Column, Database, Table
from repro.obda.virtual import VirtualGeoStore

__all__ = ["Column", "Database", "Table", "VirtualGeoStore"]
