(** SPDK Driver LabMod: the NVMe queue pair is mapped into userspace,
    so submission is an SQE write plus a doorbell — no kernel entry and
    no kernel request-structure allocation (the source of its advantage
    over the Kernel Driver in the paper's Figure 6). Requires a device
    that supports userspace completion polling. *)

open Lab_core

val factory : device:Lab_device.Device.t -> Registry.factory
(** @raise Invalid_argument if the device does not support polling. *)
