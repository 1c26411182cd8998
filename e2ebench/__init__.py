"""File-to-answer benchmark of the ``repro`` package (see ``README.md``)."""
