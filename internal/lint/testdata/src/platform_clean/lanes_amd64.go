package platform_clean

const lanes = 8
