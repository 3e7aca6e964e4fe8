"""Executable references: plain transcriptions of the paper's rules and lexer.

Kept out of ``src/`` on purpose.  Property suites compare the production
pipelines against these, so a reference must stay short enough to check
line by line against DESIGN.md section 1 and must never borrow the
implementation's shortcuts.
"""
