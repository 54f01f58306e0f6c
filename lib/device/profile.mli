(** Storage device performance profiles.

    Calibrated to the hardware of the LabStor testbed (Chameleon storage
    hierarchy appliance): Intel P3700 NVMe, Intel SSDSC2BX016T4 SATA SSD,
    Seagate ST600MP0005 15K SAS HDD, and bootloader-emulated PMEM.
    Numbers come from the public data sheets; the evaluation only relies
    on their relative magnitudes. *)

type kind = Hdd | Sata_ssd | Nvme | Pmem

type t = {
  kind : kind;
  name : string;
  capacity_bytes : int;
  block_size : int;
  n_hw_queues : int;  (** hardware dispatch queues exposed to software *)
  n_channels : int;  (** internal service parallelism for the latency stage *)
  read_latency_ns : float;  (** fixed per-command latency, reads *)
  write_latency_ns : float;
  bandwidth_bytes_per_ns : float;  (** aggregate transfer bandwidth *)
  avg_seek_ns : float;  (** mechanical positioning; 0 for solid state *)
  supports_polling : bool;  (** completion polling (NVMe) vs. interrupt *)
  byte_addressable : bool;  (** PMEM load/store access *)
}

val kind_to_string : kind -> string

val hdd : t
(** Seagate ST600MP0005: 15K RPM SAS, 600 GB. *)

val sata_ssd : t
(** Intel SSDSC2BX016T4 (DC S3610): 1.6 TB SATA. *)

val nvme : t
(** Intel P3700: 2 TB PCIe NVMe. *)

val pmem : t
(** Emulated persistent memory carved out of DRAM. *)

val of_kind : kind -> t

val all : t list

val blocks : t -> int
(** Device capacity in blocks. *)
