"""CRC16-CCITT (polynomial 0x1021, initial value 0xFFFF)."""

from binascii import crc_hqx


def crc16_ccitt(data: bytes) -> int:
    return crc_hqx(data, 0xFFFF)
