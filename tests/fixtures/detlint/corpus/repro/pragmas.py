"""Pragma fixtures: justified, unjustified, unused and malformed forms."""

import json

payload = {"b": 2, "a": 1}

# Justified suppression: silenced, and recorded with its justification.
text = json.dumps(payload)  # detlint: disable=DET004 -- key order is the payload under test

# Missing justification: the pragma itself becomes a DET000 finding and the
# DET004 finding it targeted is NOT silenced.
loose = json.dumps(payload)  # detlint: disable=DET004

# Unused suppression: nothing on this line violates DET001.
count = len(payload)  # detlint: disable=DET001 -- nothing here, flagged as unused

# Malformed: not a recognized pragma shape.
# detlint: enable=DET004
