"""Assembler tooling: builder API, assembly-text parser, disassembler."""

from repro.asm.builder import ProgramBuilder
from repro.asm.disasm import disassemble_listing, disassemble_words, listing
from repro.asm.parser import AsmError, parse_program

__all__ = [
    "ProgramBuilder",
    "disassemble_listing",
    "disassemble_words",
    "listing",
    "AsmError",
    "parse_program",
]
