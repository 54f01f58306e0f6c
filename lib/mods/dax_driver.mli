(** DAX Driver LabMod: persistent memory mapped into the address space;
    I/O is CPU load/store plus a persistence fence. Requires a
    byte-addressable device (PMEM). *)

open Lab_core

val factory : device:Lab_device.Device.t -> Registry.factory
(** @raise Invalid_argument if the device is not byte addressable. *)
